package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/encode"
	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/semcache"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// medianOf runs f n times and returns the median duration.
func medianOf(n int, f func()) time.Duration {
	times := make([]float64, n)
	for i := range times {
		start := time.Now()
		f()
		times[i] = float64(time.Since(start))
	}
	return time.Duration(median(times))
}

// perCall runs f n times and returns the mean duration of one call.
func perCall(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mrowsPerS converts rows handled in d to million rows per second.
func mrowsPerS(rows int, d time.Duration) float64 { return float64(rows) / 1e6 / d.Seconds() }

// probeRows is the number of table rows the scan probes touch.
const probeRows = 1 << 20

// probeLayers times one public function of each layer outside any request,
// on the widest query of the workload's first session, so that a change
// in one layer shows under its own name.
func probeLayers(r *run, d *olap.Dataset, sessions []session) error {
	var probe request
	var answers []request
	for _, sess := range sessions[:min(len(sessions), 20)] {
		for _, req := range sess {
			if req.Answer {
				answers = append(answers, req)
			}
		}
	}
	for _, req := range sessions[0] {
		if req.Answer && req.Size > probe.Size {
			probe = req
		}
	}
	q := probe.Query
	tab := d.Table()
	rows := min(probeRows, tab.NumRows())
	rng := rand.New(rand.NewSource(datasetSeed))
	ctx := context.Background()

	// table and olap
	var space *olap.Space
	var err error
	r.set("olap.newspace_us", us(medianOf(50, func() { space, err = olap.NewSpace(d, q) })))
	if err != nil {
		return err
	}
	buf := make([]int, 1024)
	scanner := table.NewRandomScanner(tab, rng)
	start := time.Now()
	for got := 0; got < rows; {
		n := table.FillBatch(scanner, buf)
		if n == 0 {
			break
		}
		got += n
	}
	r.set("table.scan_mrows_per_s", mrowsPerS(rows, time.Since(start)))
	classes := make([]int32, rows)
	start = time.Now()
	space.ClassifyRange(0, rows, classes)
	r.set("olap.classify_mrows_per_s", mrowsPerS(rows, time.Since(start)))
	var result *olap.Result
	start = time.Now()
	if result, err = olap.EvaluateSpace(space); err != nil {
		return err
	}
	r.set("olap.evaluate_ms", ms(time.Since(start)))

	// sampling
	sampler, err := sampling.NewSampler(space, rng)
	if err != nil {
		return err
	}
	start = time.Now()
	read := 0
	for i := 0; i < rows/64; i++ {
		read += sampler.ReadRows(64)
	}
	r.set("sampling.read_mrows_per_s", mrowsPerS(read, time.Since(start)))
	cache, err := sampling.NewCache(space)
	if err != nil {
		return err
	}
	scanner = table.NewRandomScanner(tab, rng)
	var insert time.Duration
	inserted := 0
	for inserted < rows {
		n := table.FillBatch(scanner, buf)
		if n == 0 {
			break
		}
		start = time.Now()
		cache.InsertBatch(buf[:n])
		insert += time.Since(start)
		inserted += n
	}
	r.set("sampling.insert_mrows_per_s", mrowsPerS(inserted, insert))
	var sink float64
	r.set("sampling.estimate_ns", float64(perCall(1<<20, func(int) {
		if a, ok := cache.PickAggregate(rng); ok {
			e, _ := cache.Estimate(a, rng)
			sink += e
		}
	})))
	start = time.Now()
	if _, err := sampling.BuildView(space, 256, rng); err != nil {
		return err
	}
	r.set("sampling.view_build_ms", ms(time.Since(start)))

	// streaming appends: the copy the first ingest pays, then batches
	start = time.Now()
	live, err := tab.AppendableCopy(time.Now())
	if err != nil {
		return err
	}
	r.set("table.appendable_copy_ms", ms(time.Since(start)))
	batch := func(n int) *table.RowBatch {
		rows := datagen.FlightRows(int64(n), ingestRows)
		airports, months, airlines := make([]string, len(rows)), make([]string, len(rows)), make([]string, len(rows))
		cancelled := make([]float64, len(rows))
		for i, row := range rows {
			airports[i], months[i], airlines[i], cancelled[i] = row.Airport, row.Month, row.Airline, row.Cancelled
		}
		return table.NewRowBatch().Strings("airport", airports...).Strings("month", months...).
			Strings("airline", airlines...).Float64s("cancelled", cancelled...)
	}
	liveSpace := func() (*olap.Space, error) {
		ds, err := olap.NewDataset(live.Snapshot(), d.Hierarchies()...)
		if err != nil {
			return nil, err
		}
		return olap.NewSpace(ds, q)
	}
	base, err := liveSpace()
	if err != nil {
		return err
	}
	absorbing, err := sampling.NewCache(base)
	if err != nil {
		return err
	}
	var appends, snapshots, absorbs []float64
	for n := 0; n < 20; n++ {
		b := batch(n)
		start = time.Now()
		if _, err := live.AppendBatch(b, time.Now()); err != nil {
			return err
		}
		appends = append(appends, float64(time.Since(start)))
		start = time.Now()
		live.Snapshot()
		snapshots = append(snapshots, float64(time.Since(start)))
		next, err := liveSpace()
		if err != nil {
			return err
		}
		start = time.Now()
		if err := absorbing.AbsorbAppend(next); err != nil {
			return err
		}
		absorbs = append(absorbs, float64(time.Since(start)))
	}
	r.set("table.append_us_per_batch", us(time.Duration(median(appends))))
	r.set("table.snapshot_us", us(time.Duration(median(snapshots))))
	r.set("sampling.absorb_append_us", us(time.Duration(median(absorbs))))

	// speech, belief and mcts, on one planned speech of the probe query
	cfg, _ := daemonConfig(true)
	cfg.Format = speech.PercentFormat
	cfg.Clock = voice.NewSimClock()
	out, err := core.NewHolistic(d, q, cfg).VocalizeContext(ctx)
	if err != nil {
		return err
	}
	sp, text := out.Speech, out.Text()
	norm := cfg.Normalize()
	scale := speech.SpeechScale(result.GrandValue())
	var gen *speech.Generator
	r.set("speech.candidates_us", us(medianOf(20, func() {
		gen = speech.NewGenerator(space, norm.Prefs, norm.Format)
		gen.BaselineCandidates(scale)
		gen.Refinements(nil)
	})))
	conforms := true
	r.set("speech.conforms_us", us(perCall(200, func(int) { conforms = conforms && (speech.Parser{}).Conforms(text) })))
	if !conforms {
		r.Correct = false
		r.Failures = append(r.Failures, "probe speech outside the grammar: "+text)
	}
	model, err := belief.NewModel(space, max(belief.SigmaFromScale(result.GrandValue()), 1e-9))
	if err != nil {
		return err
	}
	values, size := result.Values(), space.Size()
	r.set("belief.reward_ns", float64(perCall(1<<20, func(i int) { sink += model.Reward(sp, i%size, values[i%size]) })))
	kernel := model.NewRewardKernel()
	r.set("belief.kernel_reward_ns", float64(perCall(1<<20, func(i int) { sink += kernel.Reward(sp, i%size, values[i%size]) })))
	scorer := model.NewScorer(result)
	scorer.Reset(sp)
	r.set("belief.score_ns", float64(perCall(1<<14, func(int) { sink += scorer.Quality() })))

	eval := func(s *speech.Speech) (float64, bool) {
		a, ok := cache.PickAggregate(rng)
		if !ok {
			return 0, false
		}
		e, ok := cache.Estimate(a, rng)
		if !ok {
			return 0, false
		}
		return model.Reward(s, a, e), true
	}
	tree, err := mcts.NewTreeWithCap(gen, scale, eval, rng, norm.MaxTreeNodes)
	if err != nil {
		return err
	}
	const rounds = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := tree.SampleBatch(ctx, norm.SamplesPerRound); err != nil {
			return err
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	r.set("mcts.round_us", us(took)/float64(rounds*norm.SamplesPerRound))
	r.set("mcts.allocs_per_round", float64(after.Mallocs-before.Mallocs)/rounds)

	// nlq, semcache, admission and encode: the layers of a cache hit
	mirror, err := newMirror(d)
	if err != nil {
		return err
	}
	r.set("nlq.newsession_us", us(perCall(200, func(int) { newMirror(d) })))
	r.set("nlq.clone_us", us(perCall(2000, func(int) { mirror.Clone() })))
	var parse time.Duration
	parsed := 0
	for _, sess := range sessions[:min(len(sessions), 20)] {
		m, err := newMirror(d)
		if err != nil {
			return err
		}
		for _, req := range sess {
			start = time.Now()
			_, err := m.Parse(req.Input)
			parse += time.Since(start)
			parsed++
			if err != nil {
				return err
			}
		}
	}
	r.set("nlq.parse_us", us(parse)/float64(parsed))
	r.set("semcache.key_us", us(perCall(20000, func(i int) { semcache.Key(answers[i%len(answers)].Query) })))
	memo := semcache.New[*speech.Speech](1024)
	hitKey := "flights\x000\x00this\x00" + probe.Key
	memo.Put(hitKey, sp)
	compute := func() (*speech.Speech, bool, error) { return sp, true, nil }
	r.set("semcache.hit_us", us(perCall(100000, func(int) { memo.Do(ctx, hitKey, compute) })))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "flights\x000\x00this\x00" + probe.Key + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	var purge []float64
	for n := 0; n < 5; n++ {
		for _, k := range keys {
			memo.Put(k, sp)
		}
		start = time.Now()
		memo.PurgePrefix("flights\x00")
		purge = append(purge, float64(time.Since(start)))
	}
	r.set("semcache.purge_us", us(time.Duration(median(purge))))
	adm := admission.NewController(admission.Config{Slots: 32})
	r.set("admission.acquire_ns", float64(perCall(100000, func(int) {
		if res := adm.Acquire(ctx, tenant); res.Ticket != nil {
			res.Ticket.Release()
		}
	})))
	r.set("encode.response_us", us(perCall(1000, func(int) {
		enc := encode.EncodeSpeech(sp)
		json.Marshal(wireResponse{Action: "query", Speech: enc.Text, Structured: &enc,
			SSML: sp.SSML(speech.DefaultSSMLOptions()), ServedBy: "this"})
	})))
	if sink != sink {
		r.note("probe sink is NaN") // keeps the probed results alive
	}
	return nil
}
