package appmap

import (
	"errors"
	"fmt"
	"sort"

	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// MsgBatch is the payload of one inter-PE packet: a batch of edge messages
// produced by one PE for one destination PE in one decoder phase.
type MsgBatch struct {
	// Phase is 0 for check-to-variable messages, 1 for variable-to-check.
	Phase uint8
	Vals  []EdgeVal
}

// EdgeVal is one message: the Tanner-graph edge (check-major index) and
// the fixed-point value.
type EdgeVal struct {
	Edge int32
	Val  ldpc.LLR
}

// Engine executes distributed min-sum decoding on the cycle-accurate NoC.
// Each logical PE owns the variables and checks its partition assigns; in
// every half-iteration a PE computes its outgoing edge messages (charging
// compute cycles and PE-op energy), then ships messages for remote PEs as
// wormhole packets batched per destination. A half-iteration ends when
// every PE has received all messages it is due — the barrier that makes the
// distributed decode bit-exact with the reference flooding decoder.
type Engine struct {
	Code *ldpc.Code
	Part *Partition
	Net  *noc.Network

	// MaxIter is the fixed iteration count per block (default 16); fixed
	// iterations give the deterministic block time the paper's migration
	// periods are synchronized to.
	MaxIter int
	// NormNum/NormDen is the min-sum normalization (default 3/4).
	NormNum, NormDen int
	// MsgsPerFlit packs fixed-point messages into 64-bit flits (default 8:
	// 8-bit message plus 16-bit edge tag each... 8 messages with tag
	// compression; the flit count only shapes network load).
	MsgsPerFlit int
	// CyclesPerOp is the PE cost of one edge-message computation
	// (default 1).
	CyclesPerOp int
	// PhaseOverhead is the fixed PE pipeline ramp per half-iteration
	// (default 8 cycles).
	PhaseOverhead int

	// Decodes counts completed Decode calls — the unit of expensive NoC
	// characterization work, which sweep tests and benchmarks use to
	// verify that period and ablation variants reuse one characterization
	// instead of re-simulating.
	Decodes uint64

	place []int // logical PE -> physical block index

	// Static per-PE node ownership.
	checksOwned [][]int
	varsOwned   [][]int
	// checkEdge[c] is the first check-major edge index of check c.
	checkEdge []int
	varEdges  [][]int
	// edgeCheckPE[id] is the logical PE owning the check of edge id
	// (built by prepareDecode).
	edgeCheckPE []int
	// expectCheck[p] / expectVar[p] count the remote messages PE p receives
	// in the check / variable phase of every iteration.
	expectCheck []int
	expectVar   []int

	// Dynamic edge state (single block).
	v2c, c2v []ldpc.LLR
	totals   []int32

	pendingRemote int

	// Per-phase scratch (built by prepareDecode), reused across phases:
	// batches and packets are indexed src*NPE+dst, in/out hold one node's
	// edge messages. A phase ends only after every batch it sent is
	// delivered, so the next phase may overwrite them.
	batches []MsgBatch
	packets []noc.Packet
	sends   []pendingPkt
	in, out []ldpc.LLR

	// windows[:recorded] are the phases simulated so far in the current
	// decode, which later phases replay; the rest are spare recordings
	// kept from earlier decodes so the memo stops allocating.
	windows  []*phaseWindow
	recorded int
	// simulateAll sends every phase through the network (a test seam for
	// checking replay against simulation).
	simulateAll bool
}

// phaseWindow is one simulated half-iteration of the current decode. A
// phase replays it when its kind, send count and compute span match and
// the network's arbitration state equals the recorded start (noc.Replay
// checks that). Within one decode every phase of a kind sends the same
// packets at the same relative cycles: iterations are fixed and the
// batching follows the partition and placement, not the data.
type phaseWindow struct {
	phase uint8
	sends int
	span  int64 // maxReady - phaseStart
	win   noc.Window
}

// NewEngine wires a code, partition and network together. The partition's
// logical PE count must equal the mesh size; the initial placement is the
// identity.
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
		NormNum:       3,
		NormDen:       4,
		MsgsPerFlit:   8,
		CyclesPerOp:   1,
		PhaseOverhead: 8,
	}
	e.place = make([]int, part.NPE)
	for i := range e.place {
		e.place[i] = i
	}
	e.checksOwned = make([][]int, part.NPE)
	e.varsOwned = make([][]int, part.NPE)
	for c, pe := range part.CheckPE {
		e.checksOwned[pe] = append(e.checksOwned[pe], c)
	}
	for v, pe := range part.VarPE {
		e.varsOwned[pe] = append(e.varsOwned[pe], v)
	}
	e.checkEdge = make([]int, code.M+1)
	for c := 0; c < code.M; c++ {
		e.checkEdge[c+1] = e.checkEdge[c] + len(code.CheckNbrs[c])
	}
	e.varEdges = make([][]int, code.N)
	for c := 0; c < code.M; c++ {
		for i, v := range code.CheckNbrs[c] {
			e.varEdges[v] = append(e.varEdges[v], e.checkEdge[c]+i)
		}
	}
	e.expectCheck = make([]int, part.NPE)
	e.expectVar = make([]int, part.NPE)
	for c := 0; c < code.M; c++ {
		cp := part.CheckPE[c]
		for _, v := range code.CheckNbrs[c] {
			vp := part.VarPE[v]
			if cp != vp {
				e.expectCheck[vp]++ // check phase delivers c->v messages
				e.expectVar[cp]++   // variable phase delivers v->c messages
			}
		}
	}
	edges := code.Edges()
	e.v2c = make([]ldpc.LLR, edges)
	e.c2v = make([]ldpc.LLR, edges)
	e.totals = make([]int32, code.N)
	return e, nil
}

// prepareDecode builds, on an engine's first decode, the edge-to-check-PE
// table and the per-phase scratch, so engines that never decode (clones
// evaluating a cached characterization) do not pay for them.
func (e *Engine) prepareDecode() {
	if e.batches != nil {
		return
	}
	e.edgeCheckPE = make([]int, e.Code.Edges())
	maxDeg := 0
	for c, nbrs := range e.Code.CheckNbrs {
		for i := range nbrs {
			e.edgeCheckPE[e.checkEdge[c]+i] = e.Part.CheckPE[c]
		}
		maxDeg = max(maxDeg, len(nbrs))
	}
	for _, ids := range e.varEdges {
		maxDeg = max(maxDeg, len(ids))
	}
	e.in = make([]ldpc.LLR, maxDeg)
	e.out = make([]ldpc.LLR, maxDeg)
	npe := e.Part.NPE
	e.batches = make([]MsgBatch, npe*npe)
	e.packets = make([]noc.Packet, npe*npe)
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

// BlockResult summarises one decoded block.
type BlockResult struct {
	Decisions []uint8
	// Cycles is the block decode duration in clock cycles (deterministic
	// for a fixed placement).
	Cycles int64
	// Converged reports whether the syndrome is satisfied.
	Converged bool
	// Iterations actually executed (== MaxIter unless early stop is added).
	Iterations int
}

// pendingPkt is a packet waiting for its PE to finish computing.
type pendingPkt struct {
	at  int64
	pkt *noc.Packet
}

// Decode runs one block through the distributed decoder, driving the
// network cycle-by-cycle. A half-iteration that repeats one already
// simulated in this block, from the same arbitration state, replays its
// recorded network window instead; the messages are still computed and
// delivered. Channel LLRs are assumed pre-loaded into the PEs
// (codeword I/O is modelled as PE-local work; chip-boundary address
// translation is exercised by the core package's I/O translator).
func (e *Engine) Decode(chLLR []ldpc.LLR) (BlockResult, error) {
	code := e.Code
	if len(chLLR) != code.N {
		return BlockResult{}, fmt.Errorf("appmap: block has %d LLRs, code N=%d", len(chLLR), code.N)
	}
	e.prepareDecode()
	e.recorded = 0
	start := e.Net.Cycle

	prevDeliver := e.Net.Deliver
	defer func() { e.Net.Deliver = prevDeliver }()
	e.Net.Deliver = e.onDeliver

	// Load phase: PEs latch channel LLRs into their variable-node units.
	for v := 0; v < code.N; v++ {
		for _, id := range e.varEdges[v] {
			e.v2c[id] = chLLR[v]
		}
	}
	loadMax := int64(0)
	for p := 0; p < e.Part.NPE; p++ {
		ops := int64(len(e.varsOwned[p]))
		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
		if t := ops * int64(e.CyclesPerOp); t > loadMax {
			loadMax = t
		}
	}
	e.Net.Run(loadMax)

	for it := 0; it < e.MaxIter; it++ {
		if err := e.runPhase(0, chLLR); err != nil {
			return BlockResult{}, err
		}
		if err := e.runPhase(1, chLLR); err != nil {
			return BlockResult{}, err
		}
	}

	decisions := make([]uint8, code.N)
	for v, tot := range e.totals {
		if tot < 0 {
			decisions[v] = 1
		}
	}
	e.Decodes++
	return BlockResult{
		Decisions:  decisions,
		Cycles:     e.Net.Cycle - start,
		Converged:  code.CheckSyndrome(decisions),
		Iterations: e.MaxIter,
	}, nil
}

// runPhase executes one half-iteration: phase 0 updates check nodes, phase
// 1 variable nodes. The network part replays a matching window recorded
// earlier in the block, or is simulated and recorded.
func (e *Engine) runPhase(phase uint8, chLLR []ldpc.LLR) error {
	npe := e.Part.NPE
	phaseStart := e.Net.Cycle
	e.sends = e.sends[:0]
	maxReady := phaseStart

	for p := 0; p < npe; p++ {
		batches := e.batches[p*npe : (p+1)*npe] // by destination logical PE
		for d := range batches {
			batches[d] = MsgBatch{Phase: phase, Vals: batches[d].Vals[:0]}
		}
		ops := 0
		if phase == 0 {
			for _, c := range e.checksOwned[p] {
				lo, hi := e.checkEdge[c], e.checkEdge[c+1]
				out := e.out[:hi-lo]
				ldpc.CheckNodeUpdate(e.v2c[lo:hi], out, e.NormNum, e.NormDen)
				ops += hi - lo
				for i, v := range e.Code.CheckNbrs[c] {
					dst := e.Part.VarPE[v]
					if dst == p {
						e.c2v[lo+i] = out[i]
						continue
					}
					b := &batches[dst]
					b.Vals = append(b.Vals, EdgeVal{Edge: int32(lo + i), Val: out[i]})
				}
			}
		} else {
			for _, v := range e.varsOwned[p] {
				ids := e.varEdges[v]
				in, out := e.in[:len(ids)], e.out[:len(ids)]
				for i, id := range ids {
					in[i] = e.c2v[id]
				}
				e.totals[v] = ldpc.VarNodeUpdate(chLLR[v], in, out)
				ops += len(ids)
				for i, id := range ids {
					dst := e.edgeCheckPE[id]
					if dst == p {
						e.v2c[id] = out[i]
						continue
					}
					b := &batches[dst]
					b.Vals = append(b.Vals, EdgeVal{Edge: int32(id), Val: out[i]})
				}
			}
		}

		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
		ready := phaseStart + int64(ops*e.CyclesPerOp+e.PhaseOverhead)
		if ready > maxReady {
			maxReady = ready
		}

		// Deterministic send order by destination PE.
		for d := range batches {
			b := &batches[d]
			if len(b.Vals) == 0 {
				continue
			}
			pkt := &e.packets[p*npe+d]
			*pkt = noc.Packet{
				ID:      e.Net.NextID(),
				Src:     e.Net.Grid.Coord(e.place[p]),
				Dst:     e.Net.Grid.Coord(e.place[d]),
				NFlits:  1 + (len(b.Vals)+e.MsgsPerFlit-1)/e.MsgsPerFlit,
				Payload: b,
			}
			e.sends = append(e.sends, pendingPkt{at: ready, pkt: pkt})
		}
	}

	span := maxReady - phaseStart
	if !e.simulateAll {
		for _, w := range e.windows[:e.recorded] {
			if w.phase == phase && w.sends == len(e.sends) && w.span == span && e.Net.Replay(&w.win) {
				for _, s := range e.sends {
					e.apply(s.pkt.Payload.(*MsgBatch))
				}
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
		w.phase, w.sends, w.span = phase, len(e.sends), span
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

// onDeliver applies a received message batch to the edge state.
func (e *Engine) onDeliver(pkt *noc.Packet) {
	b, ok := pkt.Payload.(*MsgBatch)
	if !ok {
		return // foreign packet (e.g. migration traffic); not ours
	}
	e.apply(b)
	e.pendingRemote--
}

// apply writes a batch's messages into the edge state. Each edge is
// written once per phase, so batches may be applied in any order.
func (e *Engine) apply(b *MsgBatch) {
	for _, ev := range b.Vals {
		if b.Phase == 0 {
			e.c2v[ev.Edge] = ev.Val
		} else {
			e.v2c[ev.Edge] = ev.Val
		}
	}
}
