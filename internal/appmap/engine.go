package appmap

import (
	"errors"
	"fmt"
	"sort"

	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// Engine runs the traffic of distributed min-sum decoding on the
// cycle-accurate NoC. Each logical PE owns the variables and checks its
// partition assigns; in every half-iteration a PE computes its outgoing
// edge messages (charging compute cycles and PE-op energy), then ships
// the messages for remote PEs as one wormhole packet per destination. A
// half-iteration ends when every PE has received all messages it is due.
//
// With a fixed iteration count none of this depends on the message
// values, so the engine carries none: it runs a static schedule derived
// from the code and the partition, and produces the cycles and switching
// activity a value-carrying decoder would. The frozen value-carrying
// engine in ref_test.go pins that equivalence, and its decisions against
// ldpc.Decoder.
//
// Engines Forked from one another share a decode memo: a decode that
// repeats one any of them has simulated, at the same placement and from
// the same arbitration state, is replayed from the memo instead.
type Engine struct {
	Code *ldpc.Code
	Part *Partition
	Net  *noc.Network

	// MaxIter is the fixed iteration count per block (default 16); fixed
	// iterations give the deterministic block time the paper's migration
	// periods are synchronized to.
	MaxIter int
	// MsgsPerFlit is how many edge messages one 64-bit body flit carries
	// (default 8); a packet is a head flit plus enough body flits for its
	// messages. The flit count only shapes network load.
	MsgsPerFlit int
	// CyclesPerOp is the PE cost of one edge-message computation
	// (default 1).
	CyclesPerOp int
	// PhaseOverhead is the fixed PE pipeline ramp per half-iteration
	// (default 8 cycles).
	PhaseOverhead int

	// Decodes counts completed Decode calls, simulated or served from the
	// decode memo: the logical decodes a characterization asks for, which
	// sweep tests and benchmarks use to verify that period and ablation
	// variants reuse one characterization instead of characterizing again.
	Decodes uint64
	// SimulatedDecodes counts the completed Decode calls that drove the
	// network rather than replaying the memo. Like
	// noc.Stats.ReplayedCycles it is host-side bookkeeping.
	SimulatedDecodes uint64

	place []int // logical PE -> physical block index

	// memo is shared by every engine Forked from this one, and key is the
	// scratch its keys are built in.
	memo *decodeMemo
	key  []byte
	// bypassMemo simulates every decode without consulting or filling the
	// memo (a test seam for checking the memo against simulation).
	bypassMemo bool

	// sched is the static decode schedule, shared through the memo, and
	// packets the per-phase scratch, both taken by prepareDecode. Packets
	// are indexed by send-plan slot; a phase ends only after every packet
	// it sent is delivered, so the next phase may overwrite them.
	sched         *decodeSchedule
	packets       []noc.Packet
	pendingRemote int

	// windows[:recorded] are the phases simulated so far in the current
	// decode, which later phases replay; the rest are spare recordings
	// kept from earlier decodes so the memo stops allocating.
	windows  []*phaseWindow
	recorded int
	// simulateAll sends every phase of every decode through the network,
	// bypassing the memo too (a test seam for checking replay against
	// simulation).
	simulateAll bool
}

// decodeSchedule is the static schedule of a decode: the work counts of
// a code under a partition, and the send plan of each phase kind for one
// set of phase parameters. It is immutable once built, so the engines
// sharing a decode memo share it.
type decodeSchedule struct {
	code *ldpc.Code
	part *Partition
	// params are the CyclesPerOp, PhaseOverhead and MsgsPerFlit the plans
	// were built with.
	params [3]int
	counts phaseCounts
	// plans[phase] is the send order of each phase kind.
	plans [2]sendPlan
}

// sendPlan is the packets one phase kind sends, in injection order.
type sendPlan struct {
	slots []sendSlot
	// maxRel is the last PE's ready cycle relative to the phase start,
	// and at least 0: the phase runs until then even if idle.
	maxRel int64
}

// sendSlot is one packet of a sendPlan: it goes from PE p to PE d as the
// packet with ID offset seq in the phase, nflits long, once the clock
// reaches the phase start plus rel.
type sendSlot struct {
	p, d, seq, nflits int32
	rel               int64
}

// phaseWindow is one simulated half-iteration of the current decode.
// Within one decode every phase of a kind sends the same packets at the
// same relative cycles, so a phase replays a window of its kind whenever
// the network's arbitration pointers equal the recorded start on every
// port the window observed (noc.Replay checks that).
type phaseWindow struct {
	phase uint8
	win   noc.Window
}

// NewEngine wires a code, partition and network together, with a decode
// memo of its own. The partition's logical PE count must equal the mesh
// size; the initial placement is the identity.
func NewEngine(code *ldpc.Code, part *Partition, net *noc.Network) (*Engine, error) {
	if err := part.Validate(code); err != nil {
		return nil, err
	}
	if part.NPE != net.Grid.N() {
		return nil, fmt.Errorf("appmap: partition has %d PEs for a %d-node mesh",
			part.NPE, net.Grid.N())
	}
	e := &Engine{
		Code:          code,
		Part:          part,
		Net:           net,
		MaxIter:       16,
		MsgsPerFlit:   8,
		CyclesPerOp:   1,
		PhaseOverhead: 8,
	}
	e.place = make([]int, part.NPE)
	for i := range e.place {
		e.place[i] = i
	}
	e.memo = newDecodeMemo(code, part, net)
	return e, nil
}

// Fork returns an engine on net with e's code, partition and parameters
// and the identity placement. It shares e's decode memo, so a decode
// either engine has simulated is replayed on the other; net must be a
// network of its own, shaped and configured like e's.
func (e *Engine) Fork(net *noc.Network) (*Engine, error) {
	f, err := NewEngine(e.Code, e.Part, net)
	if err != nil {
		return nil, err
	}
	f.MaxIter, f.MsgsPerFlit = e.MaxIter, e.MsgsPerFlit
	f.CyclesPerOp, f.PhaseOverhead = e.CyclesPerOp, e.PhaseOverhead
	f.memo = e.memo
	return f, nil
}

// prepareDecode takes the decode schedule from the engine's memo, which
// builds it for the first engine sharing the memo that simulates a
// decode, and sizes the per-phase packet scratch; it does so on the
// engine's first simulated decode and again only when the code, the
// partition or a phase parameter has changed. Engines whose decodes are
// all served from the memo pay for neither.
func (e *Engine) prepareDecode() {
	params := [3]int{e.CyclesPerOp, e.PhaseOverhead, e.MsgsPerFlit}
	if s := e.sched; s == nil || s.code != e.Code || s.part != e.Part || s.params != params {
		e.sched = e.memo.schedule(e.Code, e.Part, params)
	}
	if n := int(e.sched.counts.pkts); len(e.packets) < n {
		e.packets = make([]noc.Packet, n)
	}
}

// Reset returns e to the decode state Fork leaves an engine in: the
// identity placement and no phase recorded. Its parameters, counters,
// memo, schedule and scratch stay. The network is reset on its own
// (noc.Network.Reset).
//
//hotnoc:noalloc
func (e *Engine) Reset() {
	for i := range e.place {
		e.place[i] = i
	}
	e.recorded, e.pendingRemote = 0, 0
}

// SetPlacement installs a new logical-to-physical mapping (a migration).
// It returns an error unless place is a bijection onto the mesh.
func (e *Engine) SetPlacement(place []int) error {
	if len(place) != e.Part.NPE {
		return fmt.Errorf("appmap: placement has %d entries for %d PEs", len(place), e.Part.NPE)
	}
	seen := make([]bool, len(place))
	for _, b := range place {
		if b < 0 || b >= len(place) || seen[b] {
			return fmt.Errorf("appmap: placement is not a bijection")
		}
		seen[b] = true
	}
	copy(e.place, place)
	return nil
}

// Decode runs one block's decoder traffic through the network, driving
// it cycle by cycle, and returns the block's duration in cycles. A decode
// that starts on a drained network and repeats one recorded in the decode
// memo (same parameters, placement and arbitration state) is replayed
// from it instead, and a half-iteration that repeats one already
// simulated in this block replays its recorded network window. Channel
// LLRs are assumed pre-loaded into the PEs (codeword I/O is modelled as
// PE-local work).
//
// The block must hold Code.N LLRs; its values are never read. The
// argument survives only for bench/layers.go's decode probe, until a
// change to the benchmark moves that probe: DecodeTraffic is the same
// decode without it.
func (e *Engine) Decode(block []ldpc.LLR) (int64, error) {
	if len(block) != e.Code.N {
		return 0, fmt.Errorf("appmap: block has %d LLRs, code N=%d", len(block), e.Code.N)
	}
	return e.DecodeTraffic()
}

// DecodeTraffic runs one block's decoder traffic through the network, as
// Decode does, and returns the block's duration in cycles. The traffic
// does not depend on the block's values, so it takes none.
func (e *Engine) DecodeTraffic() (int64, error) {
	start := e.Net.Cycle
	ent, owner := e.lookupMemo()
	if ent != nil && !owner {
		if e.replay(ent) {
			e.Decodes++
			return e.Net.Cycle - start, nil
		}
		// The decode that claimed the key failed: simulate this one.
	}
	var err error
	if owner {
		err = e.record(ent)
	} else {
		err = e.simulate()
	}
	if err != nil {
		return 0, err
	}
	e.Decodes++
	e.SimulatedDecodes++
	return e.Net.Cycle - start, nil
}

// simulate drives one decode through the network.
func (e *Engine) simulate() error {
	e.prepareDecode()
	e.recorded = 0

	prevDeliver := e.Net.Deliver
	defer func() { e.Net.Deliver = prevDeliver }()
	e.Net.Deliver = e.onDeliver

	// Load phase: PEs latch channel LLRs into their variable-node units.
	loadMax := int64(0)
	for p, ops := range e.sched.counts.load {
		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
		loadMax = max(loadMax, ops*int64(e.CyclesPerOp))
	}
	e.Net.Run(loadMax)

	for it := 0; it < e.MaxIter; it++ {
		for phase := range uint8(2) {
			if err := e.runPhase(phase); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPhase executes one half-iteration: phase 0 updates check nodes, phase
// 1 variable nodes. The network part replays a window of the same kind
// recorded earlier in the block, or is simulated and recorded. A replayed
// phase builds no packets: it takes their IDs and adds the PE ops only.
func (e *Engine) runPhase(phase uint8) error {
	for p, ops := range e.sched.counts.ops[phase] {
		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
	}
	if !e.simulateAll {
		for _, w := range e.windows[:e.recorded] {
			if w.phase == phase && e.Net.Replay(&w.win) {
				e.Net.TakeIDs(e.sched.counts.pkts)
				return nil
			}
		}
	}

	if e.recorded == len(e.windows) {
		e.windows = append(e.windows, &phaseWindow{})
	}
	w := e.windows[e.recorded]
	recording := e.Net.BeginWindow(&w.win)
	err := e.drive(&e.sched.plans[phase])
	if recording && e.Net.EndWindow(&w.win) && err == nil {
		w.phase = phase
		e.recorded++
	}
	if err != nil {
		return fmt.Errorf("appmap: phase %d %w", phase, err)
	}
	return nil
}

// newSchedule builds the decode schedule of code under part for the
// phase parameters params (CyclesPerOp, PhaseOverhead, MsgsPerFlit).
// Each PE sends to its destinations in ascending PE order, and packet
// IDs follow that order. The injection order is the one sort.Slice
// gives by ready cycle: relative to the phase start the ready cycles,
// and so every comparison the sort makes, are the same in every phase
// of a kind, so sorting once per plan yields the order sorting every
// phase would.
func newSchedule(code *ldpc.Code, part *Partition, params [3]int) *decodeSchedule {
	s := &decodeSchedule{code: code, part: part, params: params, counts: countPhases(code, part)}
	cyclesPerOp, overhead, msgsPerFlit := params[0], params[1], params[2]
	npe := part.NPE
	for phase := range s.plans {
		pl := &s.plans[phase]
		pl.slots = make([]sendSlot, 0, s.counts.pkts)
		for p := 0; p < npe; p++ {
			rel := s.counts.ops[phase][p]*int64(cyclesPerOp) + int64(overhead)
			pl.maxRel = max(pl.maxRel, rel)
			for d := 0; d < npe; d++ {
				msgs := int(s.counts.cnt[p][d])
				if phase == 1 {
					msgs = int(s.counts.cnt[d][p])
				}
				if msgs == 0 {
					continue
				}
				pl.slots = append(pl.slots, sendSlot{
					p: int32(p), d: int32(d), seq: int32(len(pl.slots)),
					nflits: int32(1 + (msgs+msgsPerFlit-1)/msgsPerFlit),
					rel:    rel,
				})
			}
		}
		sort.Slice(pl.slots, func(i, j int) bool { return pl.slots[i].rel < pl.slots[j].rel })
	}
	return s
}

// drive runs one bulk-synchronous step on the network: it sends each
// packet of the plan once the clock reaches its ready cycle and steps
// until every packet is sent, every one is delivered (onDeliver counts
// them down) and the clock has passed the last PE's ready cycle. Spans
// with an idle fabric are fast-forwarded to the next ready cycle or the
// last, which changes nothing but the host time spent. It fails after
// 10M cycles.
//
// A packet is filled in when it is sent, with the ID its slot's seq
// gives it: the plan takes the phase's IDs in one step. Equal-ready
// packets are sent in plan order, so runs are deterministic.
func (e *Engine) drive(pl *sendPlan) error {
	net := e.Net
	start := net.Cycle
	maxReady := start + pl.maxRel
	base := net.IDs()
	net.TakeIDs(uint64(len(pl.slots)))
	e.pendingRemote = len(pl.slots)
	idx := 0
	guard := net.Cycle + 10_000_000
	for e.pendingRemote > 0 || idx < len(pl.slots) || net.Cycle < maxReady {
		for ; idx < len(pl.slots) && start+pl.slots[idx].rel <= net.Cycle; idx++ {
			sl := &pl.slots[idx]
			pkt := &e.packets[idx]
			*pkt = noc.Packet{
				ID:      base + 1 + uint64(sl.seq),
				Src:     net.Grid.Coord(e.place[sl.p]),
				Dst:     net.Grid.Coord(e.place[sl.d]),
				NFlits:  int(sl.nflits),
				Payload: e,
			}
			if err := net.Send(pkt); err != nil {
				return fmt.Errorf("injection failed: %w", err)
			}
		}
		if net.Busy() {
			net.Step()
		} else {
			next := guard + 1
			if idx < len(pl.slots) {
				next = min(next, start+pl.slots[idx].rel)
			}
			if maxReady > net.Cycle {
				next = min(next, maxReady)
			}
			net.Run(next - net.Cycle)
		}
		if net.Cycle > guard {
			return errors.New("did not complete within guard window")
		}
	}
	return nil
}

// onDeliver counts the engine's own packets down; foreign packets (e.g.
// migration traffic) are not ours.
func (e *Engine) onDeliver(pkt *noc.Packet) {
	if pkt.Payload == e {
		e.pendingRemote--
	}
}
