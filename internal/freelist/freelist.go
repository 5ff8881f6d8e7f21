// Package freelist recycles an answer's stores: the search tree's arena, the
// generator's menu, the sample cache's buffers and the session's random
// stream. Each kind waits in one List, a LIFO stack behind a mutex, so a
// store released on any goroutine is the one the next Get takes, whichever
// processor either ran on and whether or not a collection ran in between.
// A store is put back only by the caller that took it or built it, so a List
// never holds more stores than were in use at once: as many as answers
// planned together, which a server caps by its admission limit.
package freelist

import "sync"

// List is a LIFO free list of *T. Make one with New.
type List[T any] struct {
	mu    sync.Mutex
	items []*T
	// misses counts the Gets that found the list empty.
	misses int
}

// lists are the lists New made, for DrainAll and Misses.
var lists struct {
	sync.Mutex
	all []interface {
		Drain()
		Misses() int
	}
}

// New returns an empty list.
func New[T any]() *List[T] {
	l := new(List[T])
	lists.Lock()
	lists.all = append(lists.all, l)
	lists.Unlock()
	return l
}

// Get takes the store put last, or returns nil if the list is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		l.misses++
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put hands x to the next Get.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, x)
}

// Misses returns the number of Gets so far that found the list empty: the
// stores its callers had to build new.
func (l *List[T]) Misses() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.misses
}

// Drain empties the list, so the next Get builds nothing on recycled memory.
// It is for tests that measure a cold answer.
func (l *List[T]) Drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.items)
	l.items = l.items[:0]
}

// DrainAll drains every list New made.
func DrainAll() {
	lists.Lock()
	defer lists.Unlock()
	for _, l := range lists.all {
		l.Drain()
	}
}

// Misses returns the Gets so far, over every list New made, that found their
// list empty.
func Misses() int {
	lists.Lock()
	defer lists.Unlock()
	n := 0
	for _, l := range lists.all {
		n += l.Misses()
	}
	return n
}
