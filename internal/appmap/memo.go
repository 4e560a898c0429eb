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
// so a repeat is replayed bit for bit however the engines interleave;
// noc.Memo resolves each key once.
type decodeMemo struct {
	// The code, partition and network shape the entries were recorded
	// with; an engine whose own differ does not use the memo.
	code *ldpc.Code
	part *Partition
	grid geom.Grid
	cfg  noc.Config

	spans noc.Memo[decodeEffect]

	// mu guards scheds, the decode schedules of the memo's code and
	// partition, one per set of phase parameters, each built by the
	// first engine to need it and read-only after.
	mu     sync.Mutex
	scheds []*decodeSchedule
}

// decodeEffect is what a recorded decode changes outside the network: its
// PE-op count per physical block, and the number of packet IDs it took.
type decodeEffect struct {
	peOps []uint64
	ids   uint64
}

// memoEntry is one recorded decode.
type memoEntry = noc.MemoEntry[decodeEffect]

func newDecodeMemo(code *ldpc.Code, part *Partition, net *noc.Network) *decodeMemo {
	return &decodeMemo{code: code, part: part, grid: net.Grid, cfg: net.Cfg}
}

// schedule returns the decode schedule of code under part for params:
// the memo's shared one when code and part are the memo's, and one of
// the caller's own otherwise.
func (m *decodeMemo) schedule(code *ldpc.Code, part *Partition, params [3]int) *decodeSchedule {
	if code != m.code || part != m.part {
		return newSchedule(code, part, params)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.scheds {
		if s.params == params {
			return s
		}
	}
	s := newSchedule(code, part, params)
	m.scheds = append(m.scheds, s)
	return s
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
	return m.spans.Get(e.memoKey())
}

// replay applies a resolved entry's decode to the network: the recorded
// window, the PE-op counts and the packet IDs. It reports false, changing
// nothing, when the entry holds no recording.
//
//hotnoc:noalloc
func (e *Engine) replay(ent *memoEntry) bool {
	if !ent.Wait() || !e.Net.Replay(&ent.Win) {
		return false
	}
	for i, v := range ent.Val.peOps {
		e.Net.Act.PEOps[i] += v
	}
	e.Net.TakeIDs(ent.Val.ids)
	return true
}

// record simulates the decode as the owner of ent, recording its network
// window, PE-op delta and packet IDs, and publishes the entry.
func (e *Engine) record(ent *memoEntry) error {
	v := &ent.Val
	v.peOps = append([]uint64(nil), e.Net.Act.PEOps...)
	v.ids = e.Net.IDs()
	e.Net.BeginWindow(&ent.Win)
	err := e.simulate()
	ok := e.Net.EndWindow(&ent.Win) && err == nil
	if ok {
		for i, x := range e.Net.Act.PEOps {
			v.peOps[i] = x - v.peOps[i]
		}
		v.ids = e.Net.IDs() - v.ids
	}
	e.memo.spans.Publish(ent, ok)
	return err
}
