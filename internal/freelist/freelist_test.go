package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLIFO: Get takes the store put last, and an empty list returns nil and
// counts a miss. The list keeps every store put, however few processors
// there are: answers that overlap beyond GOMAXPROCS, which admission allows,
// still hand their stores on.
func TestLIFO(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := New[int]()
	if l.Get() != nil || l.Misses() != 1 {
		t.Fatalf("an empty list returned a store or counted %d misses, want 1", l.Misses())
	}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c)
	for i, want := range []*int{c, b, a, nil} {
		if got := l.Get(); got != want {
			t.Fatalf("Get %d returned %p, want %p", i, got, want)
		}
	}
	if l.Misses() != 2 {
		t.Fatalf("%d misses, want 2", l.Misses())
	}
}

// TestDrainAll: DrainAll empties every list New made, and Misses adds up
// the misses of all of them.
func TestDrainAll(t *testing.T) {
	a, b := New[int](), New[string]()
	a.Put(new(int))
	b.Put(new(string))
	DrainAll()
	misses := Misses()
	if a.Get() != nil || b.Get() != nil {
		t.Fatal("DrainAll left a store in a list")
	}
	if got := Misses() - misses; got != 2 {
		t.Fatalf("two Gets on drained lists counted %d misses, want 2", got)
	}
}

// TestConcurrentGetPut: goroutines taking and returning stores never share
// one, and the list ends holding every store they built, each once: no more
// than were in use at once. Run it under -race.
func TestConcurrentGetPut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	l := New[int]()
	const workers, rounds = 8, 2000
	var built atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := l.Get()
				if x == nil {
					x = new(int)
					built.Add(1)
				}
				// A store held by two goroutines at once is a data race here.
				*x = w
				runtime.Gosched()
				if *x != w {
					t.Errorf("worker %d found its store rewritten to %d", w, *x)
					return
				}
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	held := make(map[*int]bool)
	for x := l.Get(); x != nil; x = l.Get() {
		if held[x] {
			t.Fatal("the list holds a store twice")
		}
		held[x] = true
	}
	if n := int64(len(held)); n != built.Load() || n > workers {
		t.Fatalf("the list held %d stores; %d were built by %d workers", n, built.Load(), workers)
	}
}
