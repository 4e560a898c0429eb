//hotnoc:deterministic

package noc

import "sync"

// Memo records spans of simulation that the simulators sharing it may
// repeat, keyed by whatever determines a span's effect: a decode or a
// migration whose cycles, statistics, activity and final arbitration
// pointers are a pure function of its key and of the pointers its Window
// observes. V is what the span changes outside the network (application
// counters, packet IDs, results), which the caller records beside the
// Window and applies on a replay.
//
// Each key is resolved once: the first caller to miss owns the entry and
// records the span while callers asking for the same key wait for it, so
// how many spans are simulated does not depend on how many goroutines run
// at once. A published entry is never written again. An entry whose
// recording failed is dropped rather than cached: its waiters simulate on
// their own and a later request resolves the key afresh.
//
// The zero Memo is empty and ready to use.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*MemoEntry[V]
}

// MemoEntry is one recorded span. Win and Val are written only by the
// caller that owns the entry, before it publishes it.
type MemoEntry[V any] struct {
	Win Window
	Val V

	key  string
	done chan struct{} // closed once the entry is published
	ok   bool          // Win and Val hold a recording
}

// Get returns the entry for key and whether the caller owns it: the first
// caller for a key gets a fresh entry and must Publish it, every other
// caller the same entry, on which it Waits. A key already present costs no
// allocation.
func (m *Memo[V]) Get(key []byte) (*MemoEntry[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent := m.entries[string(key)]; ent != nil {
		return ent, false
	}
	if m.entries == nil {
		m.entries = map[string]*MemoEntry[V]{}
	}
	ent := &MemoEntry[V]{key: string(key), done: make(chan struct{})}
	m.entries[ent.key] = ent
	return ent, true
}

// Publish resolves an entry the caller owns and wakes its waiters; ok
// reports that Win and Val hold a recording. An entry that does not is
// forgotten, so a later Get owns the key again.
func (m *Memo[V]) Publish(ent *MemoEntry[V], ok bool) {
	ent.ok = ok
	if !ok {
		m.mu.Lock()
		delete(m.entries, ent.key)
		m.mu.Unlock()
	}
	close(ent.done)
}

// Len returns how many keys are recorded or being recorded.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Wait blocks until ent is published and reports whether it holds a
// recording.
//
//hotnoc:noalloc
func (ent *MemoEntry[V]) Wait() bool {
	<-ent.done
	return ent.ok
}
