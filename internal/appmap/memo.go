//hotnoc:deterministic

package appmap

import (
	"sync"

	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// decodeMemo records the network effect of every distinct decode run by
// the engines that share it: a build's engine and every engine Forked from
// it. A decode that starts on a drained network ends drained, and its
// cycles, statistics, activity and final arbitration pointers are a pure
// function of the engine's parameters, the placement and the arbitration
// pointers at its start (see noc.Window). The memo keys on exactly those,
// so a repeat is replayed bit for bit however the engines interleave.
//
// Each key is resolved once: the first engine to miss simulates and
// records the decode while engines asking for the same key wait for it,
// so how many decodes are simulated does not depend on how many
// goroutines decode at once. A published entry is never written again.
// An entry whose decode failed is dropped rather than cached: its waiters
// simulate on their own and a later request resolves the key afresh.
type decodeMemo struct {
	// The code, partition and network shape the entries were recorded
	// with; an engine whose own differ does not use the memo.
	code *ldpc.Code
	part *Partition
	grid geom.Grid
	cfg  noc.Config

	mu      sync.Mutex
	entries map[string]*memoEntry
}

// memoEntry is one recorded decode. Its fields are written only by the
// engine that claimed it, before done is closed.
type memoEntry struct {
	key  string
	done chan struct{} // closed once the entry is resolved
	ok   bool          // the decode was recorded and can be replayed
	win  noc.Window
	// peOps is the decode's PE-op count per physical block, and ids the
	// number of packet IDs it took.
	peOps []uint64
	ids   uint64
}

func newDecodeMemo(code *ldpc.Code, part *Partition, net *noc.Network) *decodeMemo {
	return &decodeMemo{code: code, part: part, grid: net.Grid, cfg: net.Cfg,
		entries: map[string]*memoEntry{}}
}

// lookup returns the entry for key, or nil when no engine has claimed it.
//
//hotnoc:noalloc
func (m *decodeMemo) lookup(key []byte) *memoEntry {
	m.mu.Lock()
	ent := m.entries[string(key)] //hotnoc:allow noalloc indexing a map by string(key) does not copy the key
	m.mu.Unlock()
	return ent
}

// claim returns the entry for key and whether the caller must resolve it:
// the first caller for a key gets a fresh entry and true, every other
// caller the same entry and false.
func (m *decodeMemo) claim(key []byte) (*memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent := m.entries[string(key)]; ent != nil {
		return ent, false
	}
	ent := &memoEntry{key: string(key), done: make(chan struct{})}
	m.entries[ent.key] = ent
	return ent, true
}

// publish resolves a claimed entry and wakes its waiters. An entry that
// was not recorded is forgotten, so a later request claims the key again.
func (m *decodeMemo) publish(ent *memoEntry) {
	if !ent.ok {
		m.mu.Lock()
		delete(m.entries, ent.key)
		m.mu.Unlock()
	}
	close(ent.done)
}

// memoKey writes the current decode's key into the engine's scratch and
// returns it: MaxIter, MsgsPerFlit, CyclesPerOp and PhaseOverhead, the
// placement, and the network's arbitration pointers.
//
//hotnoc:noalloc
func (e *Engine) memoKey() []byte {
	const params = 4 * 8
	if n := params + 4*len(e.place) + e.Net.ArbitrationLen(); len(e.key) != n {
		e.key = make([]byte, n) //hotnoc:allow noalloc sized on the engine's first decode, reused after
	}
	k := e.key
	for i, v := range [...]int{e.MaxIter, e.MsgsPerFlit, e.CyclesPerOp, e.PhaseOverhead} {
		putUint(k[8*i:8*i+8], uint64(v))
	}
	off := params
	for _, b := range e.place {
		putUint(k[off:off+4], uint64(b))
		off += 4
	}
	e.Net.SaveArbitration(k[off:])
	return k
}

// putUint writes the low len(b) bytes of v into b, little-endian.
//
//hotnoc:noalloc
func putUint(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// lookupMemo returns the memo entry for the decode about to run and
// whether this engine must record it, or nil when the memo does not
// apply: it is bypassed, the engine's code, partition or network differ
// from the memo's, or traffic is in flight.
func (e *Engine) lookupMemo() (*memoEntry, bool) {
	m := e.memo
	if m == nil || e.bypassMemo || e.simulateAll || e.Net.Busy() ||
		e.Code != m.code || e.Part != m.part || e.Net.Grid != m.grid || e.Net.Cfg != m.cfg {
		return nil, false
	}
	key := e.memoKey()
	if ent := m.lookup(key); ent != nil {
		return ent, false
	}
	return m.claim(key)
}

// replay applies a resolved entry's decode to the network: the recorded
// window, the PE-op counts and the packet IDs. It reports false, changing
// nothing, when the entry holds no recording.
//
//hotnoc:noalloc
func (e *Engine) replay(ent *memoEntry) bool {
	if !ent.ok || !e.Net.Replay(&ent.win) {
		return false
	}
	for i, v := range ent.peOps {
		e.Net.Act.PEOps[i] += v
	}
	e.Net.TakeIDs(ent.ids)
	return true
}

// record simulates the decode as the owner of ent, recording its network
// window, PE-op delta and packet IDs, and publishes the entry.
func (e *Engine) record(ent *memoEntry) error {
	ent.peOps = append([]uint64(nil), e.Net.Act.PEOps...)
	ent.ids = e.Net.IDs()
	e.Net.BeginWindow(&ent.win)
	err := e.simulate()
	if e.Net.EndWindow(&ent.win) && err == nil {
		for i, v := range e.Net.Act.PEOps {
			ent.peOps[i] = v - ent.peOps[i]
		}
		ent.ids = e.Net.IDs() - ent.ids
		ent.ok = true
	}
	e.memo.publish(ent)
	return err
}
