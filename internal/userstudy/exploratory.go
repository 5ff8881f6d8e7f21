package userstudy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

// ExploratoryConfig parameterizes the simulated exploratory-analysis study
// behind Tables 8 and 9: participants analyze a dataset through the web
// interface, switching freely between the two vocalization methods.
type ExploratoryConfig struct {
	// Sessions is the number of simulated participants (paper: 20 per
	// dataset).
	Sessions int
	// MeanQueries is the average number of queries per session (paper
	// logs: 26 on average, up to 125).
	MeanQueries int
	// Seed drives the simulation.
	Seed int64
	// MaxTreeNodes caps the holistic search tree per query to bound
	// session runtime on fine-grained queries.
	MaxTreeNodes int
}

// normalize fills defaults.
func (c ExploratoryConfig) normalize() ExploratoryConfig {
	if c.Sessions <= 0 {
		c.Sessions = 20
	}
	if c.MeanQueries <= 0 {
		c.MeanQueries = 26
	}
	if c.MaxTreeNodes <= 0 {
		c.MaxTreeNodes = 20000
	}
	return c
}

// LengthStats is one row pair of Table 9: average and maximum speech
// length in characters for this approach and the prior baseline.
type LengthStats struct {
	ThisAvg, ThisMax   int
	PriorAvg, PriorMax int
}

// Preference buckets of Table 8, from strong prior preference to strong
// preference for this approach.
const (
	PrefPriorStrong = iota
	PrefPriorSlight
	PrefNeutral
	PrefThisSlight
	PrefThisStrong
	numPrefBuckets
)

// PreferenceCounts counts sessions per preference bucket.
type PreferenceCounts [numPrefBuckets]int

// ExploratoryResult reports one dataset's simulated study.
type ExploratoryResult struct {
	Lengths LengthStats
	Prefs   PreferenceCounts
	Queries int
}

// Preference model: each query contributes a saturating log length ratio
// (a 10x-longer prior readout is painful, a 100x one not 10x more so); the
// session score is the mean contribution plus a per-user taste draw. Users
// citing "a higher degree of detail" as a reason to prefer the baseline
// appear as negative taste.
const (
	prefTasteSigma  = 0.7
	perQueryClamp   = 1.5
	thPriorStrong   = -0.6
	thPriorSlight   = -0.15
	thNeutral       = 0.45
	thThisSlight    = 1.1
	queryFilterProb = 0.3
	deepLevelProb   = 0.35
	extraDimProb    = 0.55
)

// RunExploratory simulates participants issuing random exploration queries
// against the dataset, vocalizing each with both methods, and expressing a
// preference driven by the observed length difference plus personal taste.
func RunExploratory(d *olap.Dataset, col, colDesc string, format speech.ValueFormat, cfg ExploratoryConfig) (ExploratoryResult, error) {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res ExploratoryResult
	var thisSum, priorSum int

	for sess := 0; sess < cfg.Sessions; sess++ {
		n := 5 + rng.Intn(2*cfg.MeanQueries-5)
		var ratios []float64
		for qi := 0; qi < n; qi++ {
			q := randomQuery(d, col, colDesc, rng)
			thisLen, priorLen, err := vocalizeBoth(d, q, format, rng.Int63(), cfg.MaxTreeNodes)
			if err != nil {
				return res, err
			}
			res.Queries++
			thisSum += thisLen
			priorSum += priorLen
			if thisLen > res.Lengths.ThisMax {
				res.Lengths.ThisMax = thisLen
			}
			if priorLen > res.Lengths.PriorMax {
				res.Lengths.PriorMax = priorLen
			}
			if thisLen > 0 {
				ratios = append(ratios, float64(priorLen)/float64(thisLen))
			}
		}
		var sum float64
		for _, r := range ratios {
			contrib := math.Log(r)
			if contrib > perQueryClamp {
				contrib = perQueryClamp
			} else if contrib < -perQueryClamp {
				contrib = -perQueryClamp
			}
			sum += contrib
		}
		score := rng.NormFloat64() * prefTasteSigma
		if len(ratios) > 0 {
			score += sum / float64(len(ratios))
		}
		res.Prefs[prefBucket(score)]++
	}
	if res.Queries > 0 {
		res.Lengths.ThisAvg = thisSum / res.Queries
		res.Lengths.PriorAvg = priorSum / res.Queries
	}
	return res, nil
}

// prefBucket maps a preference score to a Table 8 bucket.
func prefBucket(score float64) int {
	switch {
	case score < thPriorStrong:
		return PrefPriorStrong
	case score < thPriorSlight:
		return PrefPriorSlight
	case score < thNeutral:
		return PrefNeutral
	case score < thThisSlight:
		return PrefThisSlight
	default:
		return PrefThisStrong
	}
}

// randomQuery samples an exploration query: one to three group-by
// dimensions at mostly coarse levels, occasionally a filter.
func randomQuery(d *olap.Dataset, col, colDesc string, rng *rand.Rand) olap.Query {
	hs := d.Hierarchies()
	q := olap.Query{Fct: olap.Avg, Col: col, ColDescription: colDesc}
	perm := rng.Perm(len(hs))
	nDims := 1
	for nDims < len(hs) && nDims < 3 && rng.Float64() < extraDimProb {
		nDims++
	}
	for i := 0; i < nDims; i++ {
		h := hs[perm[i]]
		level := 1
		for level < h.Depth() && rng.Float64() < deepLevelProb {
			level++
		}
		q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: h, Level: level})
	}
	if rng.Float64() < queryFilterProb {
		g := q.GroupBy[rng.Intn(len(q.GroupBy))]
		if g.Level > 1 {
			candidates := g.Hierarchy.MembersAt(1)
			q.Filters = append(q.Filters, candidates[rng.Intn(len(candidates))])
		}
	}
	return q
}

// vocalizeBoth runs the holistic vocalizer and the prior baseline on the
// same query and returns both text lengths.
func vocalizeBoth(d *olap.Dataset, q olap.Query, format speech.ValueFormat, seed int64, maxNodes int) (thisLen, priorLen int, err error) {
	cfg := core.Config{
		Format:               format,
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 300,
		Percents:             []int{20, 50, 100, 200},
		MaxTreeNodes:         maxNodes,
	}
	hOut, err := core.NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		return 0, 0, fmt.Errorf("userstudy: holistic: %w", err)
	}
	pOut, err := baseline.NewPrior(d, q, baseline.Config{Format: format}).Vocalize()
	if err != nil {
		return 0, 0, fmt.Errorf("userstudy: prior: %w", err)
	}
	// Lengths follow the paper's measure: the main speech, without the
	// preamble (the prior grammar has none either).
	return len(hOut.Speech.MainText()), len(pOut.Text), nil
}

// medianFloat returns the median of xs (1 for empty input, keeping the
// preference score neutral).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	cp := append([]float64{}, xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}

// Fact is an extracted insight in the style of Table 7.
type Fact struct {
	// Dimensions lists the dimensions the fact refers to.
	Dimensions string
	// Text is the fact itself.
	Text string
}

// ExtractFacts derives Table 7-style insights from exact evaluation of the
// flights dataset: the seasonal pattern, an airline-airport outlier, and a
// regional ranking.
func ExtractFacts(d *olap.Dataset) ([]Fact, error) {
	date := d.HierarchyByName("flight date")
	airport := d.HierarchyByName("start airport")
	airline := d.HierarchyByName("airline")
	if date == nil || airport == nil || airline == nil {
		return nil, fmt.Errorf("userstudy: facts need the flight hierarchies")
	}
	var facts []Fact

	// Fact 1: season with the highest cancellation probability.
	seasonQ := olap.Query{Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{{Hierarchy: date, Level: 1}}}
	seasonRes, err := olap.Evaluate(d, seasonQ)
	if err != nil {
		return nil, err
	}
	bestSeason, _ := argmax(seasonRes)
	grand := seasonRes.GrandValue()
	facts = append(facts, Fact{
		Dimensions: "Flight date",
		Text: fmt.Sprintf("The main cancellation probability is in %s; around %s is the average cancellation probability.",
			seasonRes.Space().AggregateName(bestSeason), speech.FormatValue(grand, speech.PercentFormat)),
	})

	// Fact 2: airline-city combination with the highest lift over the
	// overall average.
	comboQ := olap.Query{Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{
			{Hierarchy: airline, Level: 1},
			{Hierarchy: airport, Level: 3},
		}}
	comboRes, err := olap.Evaluate(d, comboQ)
	if err != nil {
		return nil, err
	}
	bestCombo, bestVal := argmax(comboRes)
	coords := comboRes.Space().Coordinates(bestCombo)
	lift := int(math.Round((bestVal/grand - 1) * 100))
	facts = append(facts, Fact{
		Dimensions: "Airline, Start airport",
		Text: fmt.Sprintf("A %s flight is %d%% more likely than normal to have a cancellation from %s.",
			coords[0].Name, lift, coords[1].Name),
	})

	// Fact 3: regional ranking.
	regionQ := olap.Query{Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{{Hierarchy: airport, Level: 1}}}
	regionRes, err := olap.Evaluate(d, regionQ)
	if err != nil {
		return nil, err
	}
	bestRegion, _ := argmax(regionRes)
	facts = append(facts, Fact{
		Dimensions: "Start airport",
		Text: fmt.Sprintf("The greatest cancellations are in %s.",
			regionRes.Space().AggregateName(bestRegion)),
	})
	return facts, nil
}

// argmax returns the index and value of the largest defined aggregate.
func argmax(r *olap.Result) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for i := 0; i < r.Space().Size(); i++ {
		v := r.Value(i)
		if !math.IsNaN(v) && v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}
