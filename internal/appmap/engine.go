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

	// sched is the static decode schedule and packets/sends the per-phase
	// scratch, all built by prepareDecode. Packets are indexed src*NPE+dst;
	// a phase ends only after every packet it sent is delivered, so the
	// next phase may overwrite them.
	sched         phaseCounts
	packets       []noc.Packet
	sends         []pendingPkt
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

// phaseWindow is one simulated half-iteration of the current decode.
// Within one decode every phase of a kind sends the same packets at the
// same relative cycles, so a phase replays a window of its kind whenever
// the network's arbitration state equals the recorded start (noc.Replay
// checks that).
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

// prepareDecode builds, on an engine's first simulated decode, the
// schedule and the per-phase scratch, so engines whose decodes are all
// served from the memo do not pay for them.
func (e *Engine) prepareDecode() {
	if e.packets != nil {
		return
	}
	e.sched = countPhases(e.Code, e.Part)
	e.packets = make([]noc.Packet, e.Part.NPE*e.Part.NPE)
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

// pendingPkt is a packet waiting for its PE to finish computing.
type pendingPkt struct {
	at  int64
	pkt *noc.Packet
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
// change to the benchmark moves that probe.
func (e *Engine) Decode(block []ldpc.LLR) (int64, error) {
	if len(block) != e.Code.N {
		return 0, fmt.Errorf("appmap: block has %d LLRs, code N=%d", len(block), e.Code.N)
	}
	start := e.Net.Cycle
	ent, owner := e.lookupMemo()
	if ent != nil && !owner {
		<-ent.done
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
	for p, ops := range e.sched.load {
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
// recorded earlier in the block, or is simulated and recorded.
func (e *Engine) runPhase(phase uint8) error {
	npe := e.Part.NPE
	phaseStart := e.Net.Cycle
	e.sends = e.sends[:0]
	maxReady := phaseStart

	for p := 0; p < npe; p++ {
		ops := e.sched.ops[phase][p]
		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
		ready := phaseStart + ops*int64(e.CyclesPerOp) + int64(e.PhaseOverhead)
		maxReady = max(maxReady, ready)

		// Deterministic send order by destination PE.
		for d := 0; d < npe; d++ {
			msgs := int(e.sched.cnt[p][d])
			if phase == 1 {
				msgs = int(e.sched.cnt[d][p])
			}
			if msgs == 0 {
				continue
			}
			pkt := &e.packets[p*npe+d]
			*pkt = noc.Packet{
				ID:      e.Net.NextID(),
				Src:     e.Net.Grid.Coord(e.place[p]),
				Dst:     e.Net.Grid.Coord(e.place[d]),
				NFlits:  1 + (msgs+e.MsgsPerFlit-1)/e.MsgsPerFlit,
				Payload: e,
			}
			e.sends = append(e.sends, pendingPkt{at: ready, pkt: pkt})
		}
	}

	if !e.simulateAll {
		for _, w := range e.windows[:e.recorded] {
			if w.phase == phase && e.Net.Replay(&w.win) {
				return nil
			}
		}
	}

	if e.recorded == len(e.windows) {
		e.windows = append(e.windows, &phaseWindow{})
	}
	w := e.windows[e.recorded]
	recording := e.Net.BeginWindow(&w.win)
	e.pendingRemote = len(e.sends)
	err := drive(e.Net, e.sends, maxReady, &e.pendingRemote)
	if recording && e.Net.EndWindow(&w.win) && err == nil {
		w.phase = phase
		e.recorded++
	}
	if err != nil {
		return fmt.Errorf("appmap: phase %d %w", phase, err)
	}
	return nil
}

// drive runs one bulk-synchronous step on the network: it injects each
// send once the network clock reaches its ready cycle and steps until
// every send is injected, *pending (decremented by the caller's delivery
// sink) reaches zero and the clock has passed maxReady. Spans with an
// idle fabric are fast-forwarded to the next ready cycle or maxReady,
// which changes nothing but the host time spent. It fails after 10M
// cycles.
//
// Equal-ready sends are injected in the order sort.Slice leaves them;
// callers build sends in a fixed order, so runs are deterministic.
func drive(net *noc.Network, sends []pendingPkt, maxReady int64, pending *int) error {
	sort.Slice(sends, func(i, j int) bool { return sends[i].at < sends[j].at })
	idx := 0
	guard := net.Cycle + 10_000_000
	for *pending > 0 || idx < len(sends) || net.Cycle < maxReady {
		for idx < len(sends) && sends[idx].at <= net.Cycle {
			if err := net.Send(sends[idx].pkt); err != nil {
				return fmt.Errorf("injection failed: %w", err)
			}
			idx++
		}
		if net.Busy() {
			net.Step()
		} else {
			next := guard + 1
			if idx < len(sends) {
				next = min(next, sends[idx].at)
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
