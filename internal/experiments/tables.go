package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/userstudy"
)

// Table2 runs the simulated pilot study (Tables 2 and 10).
func Table2(s *Setup) userstudy.PilotResult {
	return userstudy.RunPilot(userstudy.PilotConfig{Workers: 20, Seed: s.Seed})
}

// SpeechComparison is one row of Table 5 or Table 13: an approach's speech
// with its exact quality.
type SpeechComparison struct {
	Approach string
	Speech   string
	Quality  float64
	// structured is the speech itself, which Table6And14's listeners hear.
	structured *speech.Speech
}

// regionSeasonQuery is the Table 5 / Table 12 query.
func (s *Setup) regionSeasonQuery() (olap.Query, error) {
	return s.FlightsQuery("-", "RD")
}

// stateMonthQuery is the Table 13 query, whose result has hundreds of
// fields (the paper reports 378).
func (s *Setup) stateMonthQuery() olap.Query {
	airport := s.Flights.HierarchyByName("start airport")
	date := s.Flights.HierarchyByName("flight date")
	return olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: airport, Level: 2},
			{Hierarchy: date, Level: 2},
		},
	}
}

// compareSpeeches runs the three approaches on q under the simulated
// substrate cost model and scores each exactly. The unmerged baseline's
// 500 ms budget is mostly consumed by tree pre-processing, matching its
// Figure 3 role.
func (s *Setup) compareSpeeches(q olap.Query) ([]SpeechComparison, error) {
	cfg := s.substrateConfig(s.Seed)
	vocalizers := []core.Vocalizer{
		core.NewOptimal(s.Flights, q, cfg),
		core.NewUnmerged(s.Flights, q, cfg),
		core.NewHolistic(s.Flights, q, cfg),
	}
	var out []SpeechComparison
	for _, v := range vocalizers {
		res, err := v.Vocalize()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", v.Name(), err)
		}
		quality, err := core.ExactQuality(s.Flights, q, res, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, SpeechComparison{
			Approach:   v.Name(),
			Speech:     res.Speech.MainText(),
			Quality:    quality,
			structured: res.Speech,
		})
	}
	return out, nil
}

// Table5 generates the three alternative speeches for the region-by-season
// query.
func Table5(s *Setup) ([]SpeechComparison, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return nil, err
	}
	return s.compareSpeeches(q)
}

// Table13 generates the three speeches for the fine-grained state-by-month
// query.
func Table13(s *Setup) ([]SpeechComparison, error) {
	return s.compareSpeeches(s.stateMonthQuery())
}

// EstimationStudy bundles Tables 6 and 14 for one approach.
type EstimationStudy struct {
	Approach         string
	Users            []userstudy.UserScore
	MedianAbsError   float64
	TendencyAccuracy float64
}

// Table6And14 runs the simulated estimation study on the Table 5 speeches:
// eight users (two of whom misread relative changes as absolute, as the
// paper diagnosed for its users 1 and 8) estimate all twenty result fields.
// Absolute errors are reported in percentage points as in Table 6.
func Table6And14(s *Setup) ([]EstimationStudy, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return nil, err
	}
	speeches, err := Table5(s)
	if err != nil {
		return nil, err
	}
	space, err := olap.NewSpace(s.Flights, q)
	if err != nil {
		return nil, err
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		return nil, err
	}
	model, err := belief.NewModel(space, belief.SigmaFromScale(result.GrandValue()))
	if err != nil {
		return nil, err
	}
	var studies []EstimationStudy
	for _, sc := range speeches {
		est := userstudy.RunEstimation(model, result, sc.structured,
			userstudy.EstimationConfig{Users: 8, MisreadUsers: 2, Seed: s.Seed + 7})
		studies = append(studies, EstimationStudy{
			Approach:         sc.Approach,
			Users:            est.Users,
			MedianAbsError:   est.MedianAbsError() * 100, // percentage points
			TendencyAccuracy: est.MeanTendencyAccuracy(),
		})
	}
	return studies, nil
}

// Table7 extracts example facts from the flights dataset.
func Table7(s *Setup) ([]userstudy.Fact, error) {
	return userstudy.ExtractFacts(s.Flights)
}

// ExploratoryStudy bundles Tables 8 and 9 for one dataset.
type ExploratoryStudy struct {
	Dataset string
	Result  userstudy.ExploratoryResult
}

// Table8And9 runs the simulated exploratory study over both datasets.
// sessions <= 0 selects the paper's 20 per dataset.
func Table8And9(s *Setup, sessions int) ([]ExploratoryStudy, error) {
	if sessions <= 0 {
		sessions = 20
	}
	salRes, err := userstudy.RunExploratory(s.Salaries, "midCareerSalary",
		"average mid-career salary", speech.ThousandsFormat,
		userstudy.ExploratoryConfig{Sessions: sessions, MeanQueries: 12, Seed: s.Seed + 8})
	if err != nil {
		return nil, err
	}
	flRes, err := userstudy.RunExploratory(s.Flights, "cancelled",
		"average cancellation probability", speech.PercentFormat,
		userstudy.ExploratoryConfig{Sessions: sessions, MeanQueries: 12, Seed: s.Seed + 9})
	if err != nil {
		return nil, err
	}
	return []ExploratoryStudy{
		{Dataset: "Salary", Result: salRes},
		{Dataset: "Flights", Result: flRes},
	}, nil
}

// DatasetStats is one row of Table 11.
type DatasetStats struct {
	Name       string
	Dimensions string
	Rows       int
	Bytes      int64
}

// Table11 reports the dataset statistics.
func Table11(s *Setup) []DatasetStats {
	describe := func(name string, d *olap.Dataset) DatasetStats {
		dims := ""
		for i, h := range d.Hierarchies() {
			if i > 0 {
				dims += ", "
			}
			dims += h.Name
		}
		return DatasetStats{
			Name:       name,
			Dimensions: dims,
			Rows:       d.Table().NumRows(),
			Bytes:      d.Table().ApproxBytes(),
		}
	}
	return []DatasetStats{
		describe("Mid-career salary", s.Salaries),
		describe("Flight cancellations", s.Flights),
	}
}

// ResultField is one row of Table 12.
type ResultField struct {
	Region, Season string
	Cancellation   float64
}

// Table12 evaluates the region-by-season query exactly and returns the
// full result sorted by descending cancellation probability, as printed
// in the paper.
func Table12(s *Setup) ([]ResultField, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return nil, err
	}
	result, err := evaluateExact(s.Flights, q)
	if err != nil {
		return nil, err
	}
	space := result.Space()
	var rows []ResultField
	for i := 0; i < space.Size(); i++ {
		coords := space.Coordinates(i)
		rows = append(rows, ResultField{
			Region:       coords[0].Name,
			Season:       coords[1].Name,
			Cancellation: result.Value(i),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cancellation > rows[j].Cancellation })
	return rows, nil
}

// PriorComparison measures the prior baseline's latency and speech length
// on the region-by-season query, complementing Figure 3 for the related-
// work discussion.
type PriorComparison struct {
	Latency   time.Duration
	SpeechLen int
}

// PriorOnFlights runs the 2017 greedy baseline on the Figure 3 headline
// query.
func PriorOnFlights(s *Setup) (PriorComparison, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return PriorComparison{}, err
	}
	out, err := baseline.NewPrior(s.Flights, q, baseline.Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		return PriorComparison{}, err
	}
	return PriorComparison{Latency: out.Latency, SpeechLen: len(out.Text)}, nil
}
