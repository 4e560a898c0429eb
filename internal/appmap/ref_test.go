package appmap

import (
	"errors"
	"fmt"
	"sort"

	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// This file freezes the value-carrying distributed decoder the traffic-only
// Engine replaced, as the oracle for two claims:
//   - its decisions equal ldpc.Decoder's, so the NoC mapping is a
//     bit-exact min-sum decoder (TestDistributedMatchesReference,
//     TestPlacementInvariance, TestDecodeFingerprint);
//   - the Engine reproduces everything it does to the network: cycles,
//     statistics, activity, packet IDs and arbitration state
//     (TestTrafficMatchesValueOracle, TestScheduleMatchesOracle).
//
// It simulates every half-iteration; it never replays. Do not change it
// to follow the Engine.

// refBatch is the payload of one inter-PE packet: a batch of edge messages
// produced by one PE for one destination PE in one decoder phase.
type refBatch struct {
	// phase is 0 for check-to-variable messages, 1 for variable-to-check.
	phase uint8
	vals  []refEdgeVal
}

// refEdgeVal is one message: the Tanner-graph edge (check-major index)
// and the fixed-point value.
type refEdgeVal struct {
	edge int32
	val  ldpc.LLR
}

// RefEngine executes distributed min-sum decoding on the cycle-accurate
// NoC, carrying every message value in its packets.
type RefEngine struct {
	Code *ldpc.Code
	Part *Partition
	Net  *noc.Network

	MaxIter          int
	NormNum, NormDen int
	MsgsPerFlit      int
	CyclesPerOp      int
	PhaseOverhead    int

	place []int

	checksOwned [][]int
	varsOwned   [][]int
	checkEdge   []int
	varEdges    [][]int
	edgeCheckPE []int

	v2c, c2v []ldpc.LLR
	totals   []int32

	pendingRemote int

	batches []refBatch
	packets []noc.Packet
	sends   []refPending
	in, out []ldpc.LLR

	// sent[phase][src*NPE+dst] and ops[phase][src] log the messages and
	// edge computations of the last phase of each kind, for
	// TestScheduleMatchesOracle.
	sent [2][]int
	ops  [2][]int
}

// NewRefEngine wires the oracle like NewEngine, with the same defaults
// and a 3/4 min-sum normalization.
func NewRefEngine(code *ldpc.Code, part *Partition, net *noc.Network) (*RefEngine, error) {
	if err := part.Validate(code); err != nil {
		return nil, err
	}
	if part.NPE != net.Grid.N() {
		return nil, fmt.Errorf("appmap: partition has %d PEs for a %d-node mesh",
			part.NPE, net.Grid.N())
	}
	e := &RefEngine{
		Code: code, Part: part, Net: net,
		MaxIter: 16, NormNum: 3, NormDen: 4,
		MsgsPerFlit: 8, CyclesPerOp: 1, PhaseOverhead: 8,
	}
	npe := part.NPE
	e.place = make([]int, npe)
	for i := range e.place {
		e.place[i] = i
	}
	e.checksOwned = make([][]int, npe)
	e.varsOwned = make([][]int, npe)
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
	e.edgeCheckPE = make([]int, code.Edges())
	maxDeg := 0
	for c, nbrs := range code.CheckNbrs {
		for i, v := range nbrs {
			id := e.checkEdge[c] + i
			e.varEdges[v] = append(e.varEdges[v], id)
			e.edgeCheckPE[id] = part.CheckPE[c]
		}
		maxDeg = max(maxDeg, len(nbrs))
	}
	for _, ids := range e.varEdges {
		maxDeg = max(maxDeg, len(ids))
	}
	e.v2c = make([]ldpc.LLR, code.Edges())
	e.c2v = make([]ldpc.LLR, code.Edges())
	e.totals = make([]int32, code.N)
	e.in = make([]ldpc.LLR, maxDeg)
	e.out = make([]ldpc.LLR, maxDeg)
	e.batches = make([]refBatch, npe*npe)
	e.packets = make([]noc.Packet, npe*npe)
	for k := range e.sent {
		e.sent[k] = make([]int, npe*npe)
		e.ops[k] = make([]int, npe)
	}
	return e, nil
}

// SetPlacement installs a logical-to-physical mapping; the callers here
// pass only bijections.
func (e *RefEngine) SetPlacement(place []int) error {
	if len(place) != e.Part.NPE {
		return fmt.Errorf("appmap: placement has %d entries for %d PEs", len(place), e.Part.NPE)
	}
	copy(e.place, place)
	return nil
}

// refPending is a packet waiting for its PE to finish computing.
type refPending struct {
	at  int64
	pkt *noc.Packet
}

// Decode runs one block through the distributed decoder and returns its
// hard decisions and duration in cycles.
func (e *RefEngine) Decode(chLLR []ldpc.LLR) ([]uint8, int64, error) {
	code := e.Code
	if len(chLLR) != code.N {
		return nil, 0, fmt.Errorf("appmap: block has %d LLRs, code N=%d", len(chLLR), code.N)
	}
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
		loadMax = max(loadMax, ops*int64(e.CyclesPerOp))
	}
	e.Net.Run(loadMax)

	for it := 0; it < e.MaxIter; it++ {
		for phase := range uint8(2) {
			if err := e.runPhase(phase, chLLR); err != nil {
				return nil, 0, err
			}
		}
	}

	decisions := make([]uint8, code.N)
	for v, tot := range e.totals {
		if tot < 0 {
			decisions[v] = 1
		}
	}
	return decisions, e.Net.Cycle - start, nil
}

// runPhase executes one half-iteration: phase 0 updates check nodes,
// phase 1 variable nodes.
func (e *RefEngine) runPhase(phase uint8, chLLR []ldpc.LLR) error {
	npe := e.Part.NPE
	phaseStart := e.Net.Cycle
	e.sends = e.sends[:0]
	maxReady := phaseStart

	for p := 0; p < npe; p++ {
		batches := e.batches[p*npe : (p+1)*npe] // by destination logical PE
		for d := range batches {
			batches[d] = refBatch{phase: phase, vals: batches[d].vals[:0]}
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
					b.vals = append(b.vals, refEdgeVal{edge: int32(lo + i), val: out[i]})
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
					b.vals = append(b.vals, refEdgeVal{edge: int32(id), val: out[i]})
				}
			}
		}

		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
		e.ops[phase][p] = ops
		ready := phaseStart + int64(ops*e.CyclesPerOp+e.PhaseOverhead)
		maxReady = max(maxReady, ready)

		// Deterministic send order by destination PE.
		for d := range batches {
			b := &batches[d]
			e.sent[phase][p*npe+d] = len(b.vals)
			if len(b.vals) == 0 {
				continue
			}
			pkt := &e.packets[p*npe+d]
			*pkt = noc.Packet{
				ID:      e.Net.NextID(),
				Src:     e.Net.Grid.Coord(e.place[p]),
				Dst:     e.Net.Grid.Coord(e.place[d]),
				NFlits:  1 + (len(b.vals)+e.MsgsPerFlit-1)/e.MsgsPerFlit,
				Payload: b,
			}
			e.sends = append(e.sends, refPending{at: ready, pkt: pkt})
		}
	}

	e.pendingRemote = len(e.sends)
	if err := refDrive(e.Net, e.sends, maxReady, &e.pendingRemote); err != nil {
		return fmt.Errorf("appmap: phase %d %w", phase, err)
	}
	return nil
}

// refDrive injects each send once the clock reaches its ready cycle and
// steps until every send is delivered and the clock has passed maxReady,
// fast-forwarding idle spans.
func refDrive(net *noc.Network, sends []refPending, maxReady int64, pending *int) error {
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

// onDeliver applies a received message batch to the edge state; foreign
// packets (e.g. migration traffic) are not ours.
func (e *RefEngine) onDeliver(pkt *noc.Packet) {
	b, ok := pkt.Payload.(*refBatch)
	if !ok {
		return
	}
	for _, ev := range b.vals {
		if b.phase == 0 {
			e.c2v[ev.edge] = ev.val
		} else {
			e.v2c[ev.edge] = ev.val
		}
	}
	e.pendingRemote--
}
