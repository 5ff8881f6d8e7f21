package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
	"repro/internal/web"
)

// datasetSeed is fixed: -seed drives the request lists only, so every run
// of every commit plans over the same rows.
const datasetSeed = 1

// daemonConfig returns the planner configuration and server options that
// cmd/voiceolapd ships by default. They are copied by value because that
// command is package main and exports nothing; a change to its defaults
// must be repeated here.
func daemonConfig(cacheOff bool) (core.Config, web.Options) {
	cfg := core.Config{
		Seed:                 datasetSeed,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 2000,
		MaxTreeNodes:         100000,
		PlannerWorkers:       1,
	}
	opts := web.Options{
		RequestTimeout:  30 * time.Second,
		MaxBodyBytes:    64 << 10,
		MaxConcurrent:   32,
		BrownoutWindow:  64,
		BrownoutHold:    2 * time.Second,
		BreakerCooldown: 10 * time.Second,
		LogCap:          10000,
		MaxSessions:     1024,
		SessionTTL:      time.Hour,
		SemCacheEntries: 1024,
		SemCacheViews:   64,
		PoolSize:        4,
	}
	if cacheOff {
		opts.SemCacheEntries, opts.SemCacheViews = -1, -1
	}
	return cfg, opts
}

// target is one booted program under test: the generated datasets and the
// server listening on a loopback port.
type target struct {
	flights *olap.Dataset
	srv     *web.Server
	httpSrv *http.Server
	base    string
	served  chan error
	// datagenTime is how long generating the flights table took.
	datagenTime time.Duration
}

// boot generates the datasets and starts the server the way the daemon's
// main does.
func boot(rows int, cacheOff bool) (*target, error) {
	start := time.Now()
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	t := &target{flights: flights, datagenTime: time.Since(start)}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: datasetSeed + 1})
	if err != nil {
		return nil, err
	}
	cfg, opts := daemonConfig(cacheOff)
	t.srv, err = web.NewServerWith(cfg, opts,
		web.DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: measureCol,
			MeasureDesc: measureDesc, Format: speech.PercentFormat},
		web.DatasetInfo{Name: "salaries", Dataset: salaries, MeasureCol: "midCareerSalary",
			MeasureDesc: "average mid-career salary", Format: speech.ThousandsFormat},
	)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.srv.Close()
		return nil, err
	}
	t.httpSrv = &http.Server{
		Handler:           t.srv.Handler(),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	t.base = "http://" + ln.Addr().String()
	t.served = make(chan error, 1)
	go func() { t.served <- t.httpSrv.Serve(ln) }()
	return t, nil
}

// stop shuts the server down and waits for its goroutines.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.httpSrv.Shutdown(ctx)
	t.srv.Close()
	if serr := <-t.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, fmt.Errorf("serve: %w", serr))
	}
	return err
}
