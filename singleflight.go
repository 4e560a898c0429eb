package hotnoc

import (
	"sync"
	"sync/atomic"
	"time"
)

// singleflight is the in-memory half shared by the Lab's caches:
// a per-key resolve-once map. The first goroutine in for a key resolves
// it — from a disk snapshot when one validates, by computing otherwise —
// while concurrent requests for the same key block on that one
// resolution and different keys proceed in parallel.
//
// A failed resolution is delivered to the resolver and to every
// goroutine that was blocked on it, but is never cached: the key is
// cleared before the error propagates, so the next request starts a
// fresh resolution instead of replaying the failure for the cache's
// lifetime. (The entry the waiters still hold keeps the error; no
// goroutine left waiting can resolve an orphaned entry or duplicate the
// retry.)
type singleflight[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*sfEntry[V]
}

// sfEntry is one key's resolution slot. Its mutex serializes
// resolution; done/err record the outcome. resolved flips once the
// entry is populated; together with fromDisk it lets each request
// report whether *its* call skipped the expensive stage — a caller that
// merely waited on another goroutine's in-flight compute is not a hit.
// lastTouch debounces the on-disk LRU touch on memory hits.
//
// The errcache analyzer enforces the no-poisoning rule here: val must
// never be stored alongside (or before checking) a non-nil err.
//
//hotnoc:errcache
type sfEntry[V any] struct {
	mu       sync.Mutex
	done     bool
	err      error
	val      V
	fromDisk bool

	resolved  atomic.Bool
	lastTouch atomic.Int64
}

// do returns the value for key and whether it was a cache hit. load,
// when non-nil, tries the persisted snapshot (second return reports
// success); compute runs when it misses; touched, when non-nil, fires on
// memory hits with the entry's debounce state so hot entries stay
// visible to the on-disk LRU.
func (s *singleflight[K, V]) do(
	key K,
	load func() (V, bool),
	compute func() (V, error),
	touched func(last *atomic.Int64),
) (V, bool, error) {
	s.mu.Lock()
	if s.entries == nil {
		s.entries = map[K]*sfEntry[V]{}
	}
	e, ok := s.entries[key]
	if !ok {
		e = &sfEntry[V]{}
		s.entries[key] = e
	}
	s.mu.Unlock()

	alreadyResolved := e.resolved.Load()
	e.mu.Lock()
	if e.done {
		val, fromDisk := e.val, e.fromDisk
		e.mu.Unlock()
		if alreadyResolved && touched != nil {
			touched(&e.lastTouch)
		}
		return val, alreadyResolved || fromDisk, nil
	}
	if e.err != nil {
		// The resolution this caller was blocked on failed. Share the
		// error; the key itself was already cleared, so requests
		// arriving after the failure retry on a fresh entry.
		err := e.err
		e.mu.Unlock()
		var zero V
		return zero, false, err
	}
	// This goroutine resolves the entry; e.mu stays held so concurrent
	// requests for the same key block on one resolution.
	if load != nil {
		if val, ok := load(); ok {
			e.val, e.fromDisk, e.done = val, true, true
			e.resolved.Store(true)
			e.lastTouch.Store(time.Now().UnixNano())
			e.mu.Unlock()
			return val, true, nil
		}
	}
	val, err := compute()
	if err != nil {
		// Do not poison the key: forget the entry (future requests get a
		// fresh one) and record the error for the waiters blocked on
		// this one.
		s.mu.Lock()
		if s.entries[key] == e {
			delete(s.entries, key)
		}
		s.mu.Unlock()
		e.err = err
		e.mu.Unlock()
		var zero V
		return zero, false, err
	}
	e.val, e.done = val, true
	e.resolved.Store(true)
	e.mu.Unlock()
	return val, false, nil
}

// resolved reports whether key's value is in memory: a request for it
// now would be a memory hit.
func (s *singleflight[K, V]) resolved(key K) bool {
	s.mu.Lock()
	e := s.entries[key]
	s.mu.Unlock()
	return e != nil && e.resolved.Load()
}
