package semcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheGetPutLRU(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry a was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheDoSingleflight(t *testing.T) {
	c := New[string](8)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const workers = 16
	results := make([]string, workers)
	outcomes := make([]Outcome, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, oc, err := c.Do(context.Background(), "k", func() (string, bool, error) {
				close(started)
				<-release
				computes.Add(1)
				return "speech", true, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], outcomes[i] = v, oc
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want once (singleflight)", n)
	}
	misses, shared := 0, 0
	for i := range results {
		if results[i] != "speech" {
			t.Fatalf("worker %d got %q", i, results[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Coalesced, Hit:
			shared++
		}
	}
	if misses != 1 || shared != workers-1 {
		t.Errorf("outcomes: %d misses, %d shared; want 1 and %d", misses, shared, workers-1)
	}
}

func TestCacheDoUncacheableNotStored(t *testing.T) {
	c := New[string](8)
	v, oc, err := c.Do(context.Background(), "k", func() (string, bool, error) {
		return "degraded speech", false, nil
	})
	if err != nil || v != "degraded speech" || oc != Miss {
		t.Fatalf("Do = %q, %v, %v", v, oc, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("uncacheable value was stored — a degraded answer must never be replayed")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Stores != 0 {
		t.Errorf("stats = %+v, want Rejected 1 / Stores 0", st)
	}
}

func TestCacheDoErrorDoesNotPoisonFollowers(t *testing.T) {
	c := New[string](8)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	var followerV string
	var followerErr error
	done := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (string, bool, error) {
			close(leaderIn)
			<-leaderOut
			return "", true, errors.New("scan failed")
		})
	}()
	<-leaderIn
	go func() {
		defer close(done)
		followerV, _, followerErr = c.Do(context.Background(), "k", func() (string, bool, error) {
			return "retried", true, nil
		})
	}()
	close(leaderOut)
	<-done
	if followerErr != nil || followerV != "retried" {
		t.Fatalf("follower inherited the leader's failure: %q, %v", followerV, followerErr)
	}
	if v, ok := c.Get("k"); !ok || v != "retried" {
		t.Fatalf("follower's retry was not stored: %q, %v", v, ok)
	}
}

// waitSignal is a context that closes waiting the first time its Done
// channel is read. Do reads it only as it starts waiting on another
// caller's flight, so waiting closing means the caller has joined one.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// panicking runs c.Do(key) with a compute that panics once proceed is
// closed, closing started as the compute begins, and sends what the
// caller recovered on the returned channel.
func panicking(c *Cache[string], key string, started, proceed chan struct{}) <-chan any {
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = c.Do(context.Background(), key, func() (string, bool, error) {
			close(started)
			<-proceed
			panic("scan fault")
		})
	}()
	return recovered
}

// TestDoPanicEndsFlight: a compute that panics reaches its caller and ends
// its flight unstored, so a caller coalesced onto it computes for itself
// and the next caller misses instead of waiting forever on it.
func TestDoPanicEndsFlight(t *testing.T) {
	c := New[string](8)
	deadline := func() context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t.Cleanup(cancel)
		return ctx
	}

	started, proceed := make(chan struct{}), make(chan struct{})
	recovered := panicking(c, "k", started, proceed)
	<-started
	waiter := &waitSignal{Context: deadline(), waiting: make(chan struct{})}
	type result struct {
		val string
		oc  Outcome
		err error
	}
	coalesced := make(chan result, 1)
	go func() {
		v, oc, err := c.Do(waiter, "k", func() (string, bool, error) {
			return "retried", true, nil
		})
		coalesced <- result{v, oc, err}
	}()
	<-waiter.waiting
	close(proceed)
	if r := <-recovered; r != "scan fault" {
		t.Fatalf("leader recovered %v, want the compute's panic", r)
	}
	if r := <-coalesced; r.err != nil || r.val != "retried" || r.oc != Miss {
		t.Fatalf("coalesced waiter = %q, %v, %v; want it to compute for itself", r.val, r.oc, r.err)
	}

	started, proceed = make(chan struct{}), make(chan struct{})
	recovered = panicking(c, "j", started, proceed)
	<-started
	close(proceed)
	<-recovered
	v, oc, err := c.Do(deadline(), "j", func() (string, bool, error) {
		return "fresh", true, nil
	})
	if err != nil || v != "fresh" || oc != Miss {
		t.Fatalf("Do after a panicked flight = %q, %v, %v; want a Miss", v, oc, err)
	}
}

func TestCacheDoContextCancelWhileWaiting(t *testing.T) {
	c := New[string](8)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	defer close(leaderOut)
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (string, bool, error) {
			close(leaderIn)
			<-leaderOut
			return "late", true, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting Do = %v, want context.Canceled", err)
	}
}

func TestCachePurgePrefix(t *testing.T) {
	c := New[int](16)
	c.Put("flights\x001\x00a", 1)
	c.Put("flights\x001\x00b", 2)
	c.Put("salaries\x001\x00a", 3)
	if n := c.PurgePrefix("flights\x00"); n != 2 {
		t.Fatalf("purged %d, want 2", n)
	}
	if _, ok := c.Get("flights\x001\x00a"); ok {
		t.Error("purged entry survived")
	}
	if _, ok := c.Get("salaries\x001\x00a"); !ok {
		t.Error("unrelated entry was purged")
	}
}

// TestCacheConcurrentMixed hammers every operation from many goroutines;
// its value is running under -race.
func TestCacheConcurrentMixed(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%40)
				switch i % 4 {
				case 0:
					c.Put(key, i)
				case 1:
					c.Get(key)
				case 2:
					_, _, _ = c.Do(context.Background(), key, func() (int, bool, error) {
						return i, i%3 != 0, nil
					})
				default:
					c.PurgePrefix(fmt.Sprintf("k%d", w))
				}
			}
		}(w)
	}
	wg.Wait()
	c.Stats() // must not race either
}
