package semcache

import (
	"container/list"
	"context"
	"strings"
	"sync"
)

// Outcome classifies how a Do call was satisfied.
type Outcome int

const (
	// Miss means this call computed the value itself.
	Miss Outcome = iota
	// Hit means a stored entry was returned without computing.
	Hit
	// Coalesced means the call waited on another caller's in-flight
	// computation of the same key and shares its stored result.
	Coalesced
	// Aborted means the caller's context expired while waiting on another
	// caller's in-flight computation: the call neither computed nor was
	// served. Counting these separately keeps hit-rate math honest — an
	// aborted waiter is not a miss, it never got an answer at all.
	Aborted
)

// String names the outcome for logs and response fields.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	case Aborted:
		return "aborted"
	default:
		return "miss"
	}
}

// Stats snapshots a cache's counters.
type Stats struct {
	// Hits counts Get/Do calls answered from a stored entry; Misses calls
	// that computed; Coalesced calls that shared an in-flight computation.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Aborted counts waiters whose context expired before the in-flight
	// computation they were coalesced onto finished.
	Aborted int64 `json:"aborted"`
	// Stores counts accepted Put/Do stores; Rejected computations whose
	// result was not cacheable (a degraded answer); Evictions LRU drops;
	// Purged epoch-invalidation drops.
	Stores    int64 `json:"stores"`
	Rejected  int64 `json:"rejected"`
	Evictions int64 `json:"evictions"`
	Purged    int64 `json:"purged"`
}

// entry is one cached value on the LRU list.
type entry[V any] struct {
	val V
	elt *list.Element // its Value is the key
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done   chan struct{}
	val    V
	stored bool
}

// Cache is a bounded LRU keyed by canonical strings, with singleflight
// semantics: concurrent Do calls for one key run the compute function
// once. It is safe for concurrent use. A thundering herd of equivalent
// queries therefore does the planner work once and shares the speech.
type Cache[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry[V]
	lru     *list.List // front = most recently used
	flights map[string]*flight[V]
	stats   Stats
}

// New returns a cache holding at most capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:     capacity,
		entries: make(map[string]*entry[V]),
		lru:     list.New(),
		flights: make(map[string]*flight[V]),
	}
}

// Get returns the stored value for key, refreshing its recency. It counts
// hits only: the Do that computes a missing value counts the miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elt)
		c.stats.Hits++
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores val under key unconditionally, evicting the least recently
// used entry beyond capacity.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, val)
}

// store inserts or refreshes an entry. Caller holds c.mu.
func (c *Cache[V]) store(key string, val V) {
	if e, ok := c.entries[key]; ok {
		e.val = val
		c.lru.MoveToFront(e.elt)
		c.stats.Stores++
		return
	}
	for len(c.entries) >= c.cap {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(string))
		c.stats.Evictions++
	}
	e := &entry[V]{val: val}
	e.elt = c.lru.PushFront(key)
	c.entries[key] = e
	c.stats.Stores++
}

// Do returns the value for key, computing it at most once across
// concurrent callers. compute reports (value, cacheable): a non-cacheable
// value (a degraded speech) is returned to its caller but never stored,
// so no later hit can replay it. Callers waiting on another caller's
// flight whose result was not stored retry the loop and compute for
// themselves — an error, an uncacheable result or a panic must not poison
// the herd. ctx bounds only the waiting, not the computation (compute
// carries its own context).
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, bool, error)) (V, Outcome, error) {
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elt)
			c.stats.Hits++
			val := e.val
			c.mu.Unlock()
			return val, Hit, nil
		}
		if f, inflight := c.flights[key]; inflight {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				c.mu.Lock()
				c.stats.Aborted++
				c.mu.Unlock()
				return zero, Aborted, ctx.Err()
			}
			if f.stored {
				c.mu.Lock()
				c.stats.Coalesced++
				c.mu.Unlock()
				return f.val, Coalesced, nil
			}
			continue // leader's result wasn't cacheable: compute ourselves
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.stats.Misses++
		c.mu.Unlock()
		return c.lead(key, f, compute)
	}
}

// lead runs compute as key's flight f and ends the flight however compute
// returns. A panic ends it unstored, so its waiters retry and compute for
// themselves rather than wait on a flight that never lands, and then
// propagates to the caller.
func (c *Cache[V]) lead(key string, f *flight[V], compute func() (V, bool, error)) (V, Outcome, error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	val, cacheable, err := compute()
	c.mu.Lock()
	if err == nil && cacheable {
		c.store(key, val)
		f.val, f.stored = val, true
	} else if err == nil {
		c.stats.Rejected++
	}
	c.mu.Unlock()
	return val, Miss, err
}

// purgeChunk bounds how many deletions PurgePrefix performs per mutex
// hold, so concurrent Do hits never stall behind a full-map purge.
const purgeChunk = 256

// PurgePrefix drops every entry whose key starts with prefix and returns
// the count — epoch invalidation removes one dataset's whole keyspace.
//
// The mutex is never held across the full map: keys are snapshotted under
// one brief hold (string headers only, no prefix matching inside the
// lock), matched outside it, and deleted in bounded chunks that re-check
// each key still resides in the cache. Entries stored concurrently with
// the purge may survive it, exactly as entries stored just after a
// monolithic purge would — callers invalidating an epoch already make
// stale keys unreachable by construction (the epoch is part of the key).
func (c *Cache[V]) PurgePrefix(prefix string) int {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for key := range c.entries {
		keys = append(keys, key)
	}
	c.mu.Unlock()

	matched := keys[:0]
	for _, key := range keys {
		if strings.HasPrefix(key, prefix) {
			matched = append(matched, key)
		}
	}

	n := 0
	for len(matched) > 0 {
		chunk := matched
		if len(chunk) > purgeChunk {
			chunk = chunk[:purgeChunk]
		}
		matched = matched[len(chunk):]
		c.mu.Lock()
		deleted := 0
		for _, key := range chunk {
			if e, ok := c.entries[key]; ok {
				c.lru.Remove(e.elt)
				delete(c.entries, key)
				deleted++
			}
		}
		c.stats.Purged += int64(deleted)
		c.mu.Unlock()
		n += deleted
	}
	return n
}

// Len returns the number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
