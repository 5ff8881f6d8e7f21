package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// TestServeGracefulDrainsInFlightOnSIGTERM proves the daemon contract: a
// SIGTERM received while a query is being vocalized closes the listener
// but lets the in-flight request finish with a full 200 answer before
// ServeGraceful returns nil.
func TestServeGracefulDrainsInFlightOnSIGTERM(t *testing.T) {
	srv, _ := newHardenedServer(t, Options{})
	gate := parkScans(srv)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() {
		served <- ServeGraceful(context.Background(), httpSrv, ln, 5*time.Second, syscall.SIGUSR1)
	}()
	base := "http://" + ln.Addr().String()

	// A completed request proves the server is up and the signal handler
	// is registered before we raise the signal.
	resp, err := http.Get(base + "/api/datasets")
	if err != nil {
		t.Fatalf("GET datasets: %v", err)
	}
	resp.Body.Close()

	// Start a query that blocks inside vocalization.
	inFlight := make(chan int, 1)
	go func() {
		b, _ := json.Marshal(map[string]string{
			"session": "drain", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		resp, err := http.Post(base+"/api/query", "application/json", bytes.NewReader(b))
		if err != nil {
			inFlight <- -1
			return
		}
		resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	waitFor(t, gate.parked, "the query's plan at its scan")

	// Shut down mid-query. SIGUSR1 stands in for SIGTERM so a failure
	// cannot kill the whole test binary.
	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// The listener closes promptly; new connections are refused while the
	// in-flight query drains.
	refusedBy := time.Now().Add(5 * time.Second)
	for time.Now().Before(refusedBy) {
		if _, err := http.Get(base + "/api/datasets"); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Release the held vocalization: the drained request must succeed.
	close(gate.release)
	select {
	case code := <-inFlight:
		if code != http.StatusOK {
			t.Errorf("in-flight request finished with %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeGraceful = %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful never returned")
	}
}

// TestServeGracefulContextCancel shuts down via the caller's context
// instead of a signal.
func TestServeGracefulContextCancel(t *testing.T) {
	srv, _ := newHardenedServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- ServeGraceful(ctx, httpSrv, ln, time.Second, syscall.SIGUSR2)
	}()
	resp, err := http.Get("http://" + ln.Addr().String() + "/api/datasets")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeGraceful = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful never returned")
	}
}

// TestServeGracefulExpiredGraceCutsStragglers verifies the hard cutoff: a
// request still running past the grace window is aborted and
// ServeGraceful reports the deadline error.
func TestServeGracefulExpiredGraceCutsStragglers(t *testing.T) {
	srv, _ := newHardenedServer(t, Options{})
	gate := parkScans(srv)
	defer close(gate.release)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- ServeGraceful(ctx, httpSrv, ln, 50*time.Millisecond, syscall.SIGUSR2)
	}()
	base := "http://" + ln.Addr().String()
	go func() {
		b, _ := json.Marshal(map[string]string{
			"session": "stuck", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		resp, err := http.Post(base+"/api/query", "application/json", bytes.NewReader(b))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, gate.parked, "the query's plan at its scan")
	cancel()
	select {
	case err := <-served:
		if err == nil {
			t.Error("expired grace should surface the shutdown deadline error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful never returned after the grace window")
	}
}

// TestSIGTERMShedsQueueAndDrainsDegraded is the drain-under-overload
// contract: with every slot busy and injected storage faults, requests are
// shed cleanly (503, not a hang or 500), SIGTERM stops admission, and the
// in-flight request finishes with a degraded but grammar-valid answer.
func TestSIGTERMShedsQueueAndDrainsDegraded(t *testing.T) {
	// Storage chaos on every scan: slow rows plus periodic truncation.
	var scans atomic.Int64
	injector := faults.NewInjector(faults.InjectorOptions{
		SlowEvery: 2, SlowDelay: 50 * time.Microsecond, FailEvery: 3,
	})
	srv, _ := newFlightsServer(t, core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
		Scanner: func(t *table.Table, rng *rand.Rand) table.Scanner {
			scans.Add(1)
			return injector.Scanner(t, rng)
		},
	}, Options{MaxConcurrent: 1, RequestTimeout: time.Second})
	gate := parkScans(srv)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpSrv.RegisterOnShutdown(srv.StartDrain)
	served := make(chan error, 1)
	go func() {
		served <- ServeGraceful(context.Background(), httpSrv, ln, 10*time.Second, syscall.SIGUSR1)
	}()
	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/api/datasets")
	if err != nil {
		t.Fatalf("GET datasets: %v", err)
	}
	resp.Body.Close()

	post := func(session string, out chan<- int) {
		b, _ := json.Marshal(map[string]string{
			"session": session, "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		resp, err := http.Post(base+"/api/query", "application/json", bytes.NewReader(b))
		if err != nil {
			out <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- resp.StatusCode
	}

	inFlight := make(chan int, 1)
	go post("inflight", inFlight)
	waitFor(t, gate.parked, "the query's plan at its scan")
	// Every request beyond the busy slot is shed promptly, although the
	// slot-holder is still mid-vocalize.
	shed := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go post(fmt.Sprintf("shed-%d", i), shed)
	}
	for i := 0; i < 3; i++ {
		select {
		case code := <-shed:
			if code != http.StatusServiceUnavailable {
				t.Errorf("request %d beyond the slot finished with %d, want 503", i, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request beyond the slot never shed")
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// Hold the in-flight request past its own deadline so its answer is
	// forced through the degradation path, then let it finish.
	time.Sleep(1100 * time.Millisecond)
	close(gate.release)
	select {
	case code := <-inFlight:
		if code != http.StatusOK {
			t.Errorf("in-flight request finished with %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeGraceful = %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeGraceful never returned")
	}

	// The drained answer is degraded but still inside the speech grammar.
	srv.mu.Lock()
	entries := srv.log.snapshot()
	srv.mu.Unlock()
	if len(entries) != 1 {
		t.Fatalf("query log has %d entries, want only the drained one", len(entries))
	}
	e := entries[0]
	if !e.Degraded {
		t.Error("in-flight answer held past its deadline should be degraded")
	}
	if !(speech.Parser{}).Conforms(e.Speech) {
		t.Errorf("drained answer not grammar-valid: %q", e.Speech)
	}
	if scans.Load() == 0 {
		t.Error("fault injector never saw a scan; chaos path untested")
	}
	// The shutdown hook drained admission: nothing is admitted any more.
	if r := srv.adm.Acquire(context.Background(), "late"); r.Shed != admission.ShedDraining {
		t.Errorf("admission after shutdown: got %v, want ShedDraining", r.Shed)
	}
}
