package main

import (
	"fmt"
	"time"
)

// setupRepeats is how often an untraced run boots the program; setup_s
// takes the median boot, so one slow boot does not decide it.
const setupRepeats = 3

// giveUpFactor bounds the measured phase: the clients take no new session
// once it has lasted this many times what the baseline needed.
const giveUpFactor = 1.3

// setUp brings the program under test up for w: datagen, server boot and
// listener (repeated, median taken), then the warm-up, which on an ingest
// workload includes the first batch that makes the server copy its table.
// The returned duration leaves out generating the request lists, which is
// the generator's own work.
func setUp(w workload, o options, n int) (*target, *driver, []session, time.Duration, error) {
	repeats := setupRepeats
	if o.trace {
		repeats = 1 // a traced run does not report setup_s
	}
	var t *target
	var boots []float64
	for i := 0; i < repeats; i++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, nil, nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if t, err = boot(o.rows, w.cacheOff); err != nil {
			return nil, nil, nil, 0, err
		}
		boots = append(boots, time.Since(start).Seconds())
	}
	lists, err := generate(w, t.flights, o.seed, n)
	if err != nil {
		t.stop()
		return nil, nil, nil, 0, err
	}
	d := newDriver(w, t, o.seed)
	start := time.Now()
	if err := d.warm(lists); err != nil {
		d.close()
		t.stop()
		return nil, nil, nil, 0, err
	}
	setup := time.Duration(median(boots)*float64(time.Second)) + time.Since(start)
	return t, d, lists, setup, nil
}

// runWorkload runs one workload end to end and returns its record.
func runWorkload(w workload, o options) (*run, error) {
	r := newRun(w, o)
	seconds := o.seconds
	if o.trace {
		// A traced run splits its time: half for the HTTP phase that the
		// counters bracket, the rest for the replays and probes.
		seconds /= 2
	}
	t, d, lists, setup, err := setUp(w, o, w.sessionCount(seconds))
	if err != nil {
		return nil, err
	}
	defer func() {
		d.close()
		if err := t.stop(); err != nil {
			r.Correct = false
			r.Failures = append(r.Failures, err.Error())
		}
	}()
	r.ListHash, r.Sessions = listHash(lists), len(lists)

	// The list is sized to take -seconds at the baseline's speed. A slower
	// program or machine may take giveUpFactor times as long; then the
	// clients stop taking sessions, so that a run's length, and with it
	// the time all the driver's runs take, is bounded.
	giveUp := time.Duration(giveUpFactor * float64(len(lists)) / w.sessionsPerSecond * float64(time.Second))
	ph, err := d.phase(lists, giveUp)
	if err != nil {
		return nil, err
	}
	if ph.gaveUp.Load() {
		r.note("stopped sending after %v, %.1f times the baseline's time, before all %d sessions were sent", giveUp, giveUpFactor, len(lists))
	}
	// all holds the latencies of the answers completed while every client
	// was busy; hit and miss split every answer of the phase.
	var all, hit, miss []time.Duration
	busyEnd := ph.start.Add(ph.busy)
	for _, c := range ph.clients {
		r.Attempted += c.attempted
		r.Failed += c.failed
		r.Failures = append(r.Failures, c.failures...)
		r.Answers += len(c.all)
		for i, at := range c.doneAt {
			if !at.After(busyEnd) {
				all = append(all, c.all[i])
			}
		}
		hit = append(hit, c.hit...)
		miss = append(miss, c.miss...)
	}
	if ph.ingest != nil {
		r.Attempted += ph.ingest.attempted
		r.Failed += ph.ingest.failed + ph.droppedSignals
		r.Failures = append(r.Failures, ph.ingest.failures...)
		if ph.droppedSignals > 0 {
			r.Failures = append(r.Failures, fmt.Sprintf("%d ingest batches were due while 16 were already waiting", ph.droppedSignals))
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no correct answer in the measured phase: %v", r.Failures)
	}
	quality, err := newOracle(t.flights).meanQuality(ph.clients)
	if err != nil {
		return nil, err
	}
	r.Correct = r.Correct && r.Failed == 0

	counterMetrics(r, ph, all, hit, miss)
	if !o.trace {
		r.set("setup_s", setup.Seconds())
		r.set("quality", quality)
		r.set("alloc_mb_per_answer", float64(ph.after.allocBytes-ph.before.allocBytes)/(1<<20)/float64(r.Answers))
		return r, nil
	}
	r.set("datagen.flights_mrows_per_s", float64(o.rows)/1e6/t.datagenTime.Seconds())
	if err := traceWorkload(r, o, d, lists, percentile(all, 0.50)); err != nil {
		return nil, err
	}
	return r, nil
}

// counterMetrics reports what the generator counted and what the server
// and the Go runtime published around the HTTP phase.
func counterMetrics(r *run, ph *phaseResult, all, hit, miss []time.Duration) {
	answers := float64(r.Answers)
	r.set("fail_share", float64(r.Failed)/float64(r.Attempted))
	r.set("heap_peak_mb", ph.heapPeakMB)
	r.set("answers_per_s", float64(len(all))/ph.busy.Seconds())
	r.set("answer_p50_ms", percentile(all, 0.50))
	r.set("answer_p90_ms", percentile(all, 0.90))
	r.set("answer_p99_ms", percentile(all, 0.99))
	r.set("answer_hit_p50_ms", percentile(hit, 0.50))
	r.set("answer_miss_p50_ms", percentile(miss, 0.50))
	var clientTime time.Duration
	for _, c := range ph.clients {
		clientTime += c.clientTime
	}
	if in := ph.ingest; in != nil {
		clientTime += in.clientTime
		r.set("ingest_p50_ms", percentile(in.latencies, 0.50))
		r.set("ingest_p90_ms", percentile(in.latencies, 0.90))
		r.set("gen.lateness_ms", percentile(in.lateness, 0.50))
	} else {
		r.set("ingest_p50_ms", 0)
		r.set("ingest_p90_ms", 0)
		r.set("gen.lateness_ms", 0)
	}
	r.set("gen.client_us_per_op", float64(clientTime.Microseconds())/float64(r.Attempted))

	b, a := ph.before.stats.Serving, ph.after.stats.Serving
	var hitRatio, stores, viewBuilds, viewHitRatio float64
	if a.SemCache != nil && b.SemCache != nil {
		hitRatio = float64(a.SemCache.HitsServed+a.SemCache.CoalescedServed-
			b.SemCache.HitsServed-b.SemCache.CoalescedServed) / answers
		stores = float64(a.SemCache.Answers.Stores - b.SemCache.Answers.Stores)
		viewBuilds = float64(a.SemCache.Views.Stores - b.SemCache.Views.Stores)
		if lookups := a.SemCache.Views.Hits + a.SemCache.Views.Misses - b.SemCache.Views.Hits - b.SemCache.Views.Misses; lookups > 0 {
			viewHitRatio = float64(a.SemCache.Views.Hits-b.SemCache.Views.Hits) / float64(lookups)
		}
	}
	r.set("semcache.hit_ratio", hitRatio)
	r.set("semcache.stores", stores)
	r.set("semcache.view_builds", viewBuilds)
	r.set("semcache.view_hit_ratio", viewHitRatio)
	var queued, shed int64
	for _, t := range a.Tenants {
		queued += t.Queued
		for _, n := range t.Shed {
			shed += n
		}
	}
	for _, t := range b.Tenants {
		queued -= t.Queued
		for _, n := range t.Shed {
			shed -= n
		}
	}
	r.set("admission.queued", float64(queued))
	r.set("admission.shed", float64(shed))
	r.set("web.vocalize_p50_ms", a.VocalizeLatencyMS["p50"])
	r.set("web.vocalize_p99_ms", a.VocalizeLatencyMS["p99"])
	r.set("web.sessions_logged", float64(len(ph.after.stats.Sessions)))
	r.set("web.stale_answers", ph.after.stale-ph.before.stale)
	r.set("go.mutex_wait_ms", (ph.after.mutexWait-ph.before.mutexWait)*1e3)
	r.set("go.gc_pause_ms", ms(ph.after.gcPause-ph.before.gcPause))
	r.set("go.allocs_per_answer", float64(ph.after.mallocs-ph.before.mallocs)/answers)
	r.set("go.cpu_s_per_answer", (ph.after.cpu-ph.before.cpu).Seconds()/answers)
}
