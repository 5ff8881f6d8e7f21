// Command voiceolapd serves the voice-OLAP web interface used by the
// paper's crowd study: a single page where each query can be answered by
// either vocalization method, spoken by the browser's speech synthesis.
//
// The daemon is hardened for sustained multi-tenant traffic: the HTTP
// server carries read/write/idle timeouts, every request runs under a
// deadline (answers degrade to a shorter valid speech instead of
// overrunning), and SIGINT/SIGTERM trigger a graceful shutdown that
// refuses new queries and drains in-flight ones before exiting. Overload
// is governed by -max-concurrent vocalization slots; a request that finds
// them all busy gets 503 with a one-second Retry-After.
//
// Usage:
//
//	voiceolapd [-addr :8080] [-flight-rows N] [-seed S]
//	           [-request-timeout 30s] [-shutdown-grace 10s]
//	           [-max-concurrent 32] [-max-body-bytes 65536]
//	           [-log-cap 10000] [-max-sessions 1024] [-session-ttl 1h]
//	           [-semcache-entries 1024]
//	           [-read-timeout 30s] [-write-timeout 60s] [-idle-timeout 2m]
//	           [-debug-addr 127.0.0.1:6060]
//
// Repeated voice queries are nearly free: a semantic answer cache keyed
// by canonical query (scope order and dimension synonyms normalized away)
// replays finished speeches for equivalent requests. The query port
// exposes Prometheus-style text metrics at /metrics (admission, per-tenant,
// ingest, semcache and latency-quantile counters).
//
// -debug-addr serves net/http/pprof on its own listener and mux, so
// planner hot spots are profileable in production without ever exposing
// profiling endpoints on the query port. It is off by default; bind it to
// localhost or a private interface.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/speech"
	"repro/internal/web"
)

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
	maxConcurrent := flag.Int("max-concurrent", 32, "concurrent vocalizations admitted before responding 503")
	maxBodyBytes := flag.Int64("max-body-bytes", 64<<10, "request body cap for /api/query")
	logCap := flag.Int("log-cap", 10000, "query-log ring capacity")
	maxSessions := flag.Int("max-sessions", 1024, "live session cap (LRU eviction beyond it)")
	sessionTTL := flag.Duration("session-ttl", time.Hour, "idle session eviction deadline")
	semcacheEntries := flag.Int("semcache-entries", 1024, "semantic answer cache capacity (negative disables; equivalent repeat queries replay for free)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "HTTP server write timeout (keep above -request-timeout)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
	debugAddr := flag.String("debug-addr", "", "pprof listen address on a separate mux (empty disables; bind to localhost)")
	flag.Parse()

	fmt.Printf("generating datasets (flights: %d rows)...\n", *flightRows)
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: *flightRows, Seed: *seed})
	if err != nil {
		return err
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: *seed + 1})
	if err != nil {
		return err
	}

	cfg := core.DaemonConfig(*seed)
	opts := web.Options{
		RequestTimeout:  *requestTimeout,
		MaxBodyBytes:    *maxBodyBytes,
		MaxConcurrent:   *maxConcurrent,
		LogCap:          *logCap,
		MaxSessions:     *maxSessions,
		SessionTTL:      *sessionTTL,
		SemCacheEntries: *semcacheEntries,
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
	// On SIGINT/SIGTERM, refuse new queries at once so the grace window is
	// spent draining in-flight work.
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
