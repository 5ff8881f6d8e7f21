// Command voiceolapd serves the voice-OLAP web interface used by the
// paper's crowd study: a single page where each query can be answered by
// either vocalization method, spoken by the browser's speech synthesis.
//
// The daemon is hardened for sustained multi-tenant traffic: the HTTP
// server carries read/write/idle timeouts, every request runs under a
// deadline (answers degrade to a shorter valid speech instead of
// overrunning), and SIGINT/SIGTERM trigger a graceful shutdown that sheds
// the admission queue and drains in-flight queries before exiting.
// Overload is governed by per-tenant token buckets and a weighted-fair
// admission queue (429/503 + load-derived Retry-After), a brownout ladder
// that trades answer quality for latency headroom, and per-dataset
// circuit breakers that trip the holistic planner to the prior baseline
// after consecutive deadline blowouts.
//
// Usage:
//
//	voiceolapd [-addr :8080] [-flight-rows N] [-seed S]
//	           [-request-timeout 30s] [-shutdown-grace 10s]
//	           [-max-concurrent 32] [-queue-depth 0] [-max-body-bytes 65536]
//	           [-tenant-rate 0] [-tenant-burst 0] [-tenant-weights a=2,b=1]
//	           [-brownout-target 0] [-brownout-window 64] [-brownout-hold 2s]
//	           [-breaker-threshold 0] [-breaker-cooldown 10s]
//	           [-log-cap 10000] [-max-sessions 1024] [-session-ttl 1h]
//	           [-semcache-entries 1024]
//	           [-read-timeout 30s] [-write-timeout 60s] [-idle-timeout 2m]
//	           [-debug-addr 127.0.0.1:6060]
//	           [-fault-slow-every 0] [-fault-stall-every 0] [-fault-fail-every 0]
//
// Repeated voice queries are nearly free: a semantic answer cache keyed
// by canonical query (scope order and dimension synonyms normalized away)
// replays finished speeches for equivalent requests. The query port
// exposes Prometheus-style text metrics at /metrics (serving, brownout,
// breaker, semcache, and latency-quantile counters).
//
// -debug-addr serves net/http/pprof on its own listener and mux, so
// planner hot spots are profileable in production without ever exposing
// profiling endpoints on the query port. It is off by default; bind it to
// localhost or a private interface.
//
// The -fault-* flags inject storage faults (slow, stalling, truncated
// scans) into the holistic planner's scan path — chaos testing only,
// never production.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/speech"
	"repro/internal/voice"
	"repro/internal/web"
)

// parseWeights parses "tenant=weight,tenant=weight" into a weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed weight %q (want tenant=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("weight for %q must be a positive integer, got %q", name, val)
		}
		out[name] = w
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "voiceolapd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	flightRows := flag.Int("flight-rows", datagen.DefaultFlightRows, "flight dataset rows")
	seed := flag.Int64("seed", 1, "random seed")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline; answers degrade at the deadline (negative disables)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight queries on SIGINT/SIGTERM")
	maxConcurrent := flag.Int("max-concurrent", 32, "concurrent vocalizations admitted before queueing or responding 503")
	queueDepth := flag.Int("queue-depth", 0, "weighted-fair admission queue depth beyond -max-concurrent (0 sheds immediately at saturation)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admitted queries per second (0 disables rate limiting; beyond it responds 429)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (default: one second of -tenant-rate)")
	tenantWeights := flag.String("tenant-weights", "", "comma-separated tenant=weight fair-share overrides (default weight 1)")
	brownoutTarget := flag.Duration("brownout-target", 0, "p99 vocalize-latency goal; overshooting it steps down the degradation ladder (0 disables)")
	brownoutWindow := flag.Int("brownout-window", 64, "sliding sample window for the brownout p99")
	brownoutHold := flag.Duration("brownout-hold", 2*time.Second, "minimum dwell time between brownout ladder steps")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive deadline blowouts tripping a dataset's holistic path to the prior baseline (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "open-breaker cooldown before a half-open probe")
	maxBodyBytes := flag.Int64("max-body-bytes", 64<<10, "request body cap for /api/query")
	logCap := flag.Int("log-cap", 10000, "query-log ring capacity")
	maxSessions := flag.Int("max-sessions", 1024, "live session cap (LRU eviction beyond it)")
	sessionTTL := flag.Duration("session-ttl", time.Hour, "idle session eviction deadline")
	semcacheEntries := flag.Int("semcache-entries", 1024, "semantic answer cache capacity (negative disables; equivalent repeat queries replay for free)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "HTTP server write timeout (keep above -request-timeout)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
	debugAddr := flag.String("debug-addr", "", "pprof listen address on a separate mux (empty disables; bind to localhost)")
	faultSlowEvery := flag.Int("fault-slow-every", 0, "chaos: wrap every Nth scan in a slow scanner (0 disables)")
	faultSlowDelay := flag.Duration("fault-slow-delay", time.Millisecond, "chaos: injected per-row latency for slow scans")
	faultStallEvery := flag.Int("fault-stall-every", 0, "chaos: wrap every Nth scan in a stalling scanner (0 disables)")
	faultStallRelease := flag.Duration("fault-stall-release", time.Second, "chaos: auto-release delay for stalled scans")
	faultFailEvery := flag.Int("fault-fail-every", 0, "chaos: truncate every Nth scan mid-stream (0 disables)")
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		return fmt.Errorf("-tenant-weights: %w", err)
	}

	fmt.Printf("generating datasets (flights: %d rows)...\n", *flightRows)
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: *flightRows, Seed: *seed})
	if err != nil {
		return err
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: *seed + 1})
	if err != nil {
		return err
	}

	cfg := core.Config{
		Seed:                 *seed,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 2000,
		MaxTreeNodes:         100000,
	}
	injectorOpts := faults.InjectorOptions{
		SlowEvery:    *faultSlowEvery,
		SlowDelay:    *faultSlowDelay,
		StallEvery:   *faultStallEvery,
		StallRelease: *faultStallRelease,
		FailEvery:    *faultFailEvery,
	}
	if injectorOpts.Enabled() {
		fmt.Println("CHAOS: storage-fault injection enabled on the holistic scan path")
		cfg.Scanner = faults.NewInjector(injectorOpts).Scanner
	}
	opts := web.Options{
		RequestTimeout:   *requestTimeout,
		MaxBodyBytes:     *maxBodyBytes,
		MaxConcurrent:    *maxConcurrent,
		QueueDepth:       *queueDepth,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		TenantWeights:    weights,
		BrownoutTarget:   *brownoutTarget,
		BrownoutWindow:   *brownoutWindow,
		BrownoutHold:     *brownoutHold,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		LogCap:           *logCap,
		MaxSessions:      *maxSessions,
		SessionTTL:       *sessionTTL,
		SemCacheEntries:  *semcacheEntries,
	}
	srv, err := web.NewServerWith(cfg, opts,
		web.DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: "cancelled",
			MeasureDesc: "average cancellation probability", Format: speech.PercentFormat},
		web.DatasetInfo{Name: "salaries", Dataset: salaries, MeasureCol: "midCareerSalary",
			MeasureDesc: "average mid-career salary", Format: speech.ThousandsFormat},
	)
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		dln, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return fmt.Errorf("debug listener: %w", derr)
		}
		fmt.Printf("serving pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			// The profiling handlers live on their own mux and listener:
			// the query port's handler never sees them, and the
			// (pprof-import-polluted) http.DefaultServeMux is unused.
			dmux := http.NewServeMux()
			dmux.HandleFunc("/debug/pprof/", pprof.Index)
			dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			dsrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			if serr := dsrv.Serve(dln); serr != nil && serr != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "voiceolapd: pprof server:", serr)
			}
		}()
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// On SIGINT/SIGTERM, shed every queued admission waiter immediately so
	// the grace window is spent draining in-flight work, not the queue.
	httpSrv.RegisterOnShutdown(srv.StartDrain)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving voice-based OLAP on %s (SIGINT/SIGTERM drains for up to %s)\n", ln.Addr(), *shutdownGrace)
	if err := web.ServeGraceful(context.Background(), httpSrv, ln, *shutdownGrace); err != nil {
		return err
	}
	fmt.Println("shut down cleanly")
	return nil
}
