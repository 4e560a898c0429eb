package appmap

import (
	"fmt"

	"hotnoc/internal/noc"
)

// SyntheticWorkload describes a generic bulk-synchronous workload without
// reference to any particular application: in every round each logical PE
// computes Ops[i] operations and then exchanges Traffic[i][j] messages
// with its peers. This lets downstream users evaluate runtime
// reconfiguration for workloads other than the paper's LDPC decoder —
// DSP pipelines, stencil kernels, packet processing — by profiling just
// two vectors.
type SyntheticWorkload struct {
	// Ops[i] is logical PE i's computation per round.
	Ops []int64
	// Traffic[i][j] is the number of messages PE i sends PE j per round.
	Traffic [][]int64
	// MsgsPerFlit batches messages into flits (default 8).
	MsgsPerFlit int
	// CyclesPerOp is the PE cost of one operation (default 1).
	CyclesPerOp int
	// RoundOverhead is the fixed per-round pipeline ramp (default 8).
	RoundOverhead int
}

func (w *SyntheticWorkload) setDefaults() {
	if w.MsgsPerFlit == 0 {
		w.MsgsPerFlit = 8
	}
	if w.CyclesPerOp == 0 {
		w.CyclesPerOp = 1
	}
	if w.RoundOverhead == 0 {
		w.RoundOverhead = 8
	}
}

// Validate reports structural problems.
func (w *SyntheticWorkload) Validate() error {
	n := len(w.Ops)
	if n == 0 {
		return fmt.Errorf("appmap: synthetic workload has no PEs")
	}
	if len(w.Traffic) != n {
		return fmt.Errorf("appmap: traffic matrix is %dx? for %d PEs", len(w.Traffic), n)
	}
	for i, row := range w.Traffic {
		if len(row) != n {
			return fmt.Errorf("appmap: traffic row %d has %d entries for %d PEs", i, len(row), n)
		}
		if row[i] != 0 {
			return fmt.Errorf("appmap: PE %d has self traffic", i)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("appmap: negative traffic %d at (%d,%d)", v, i, j)
			}
		}
	}
	for i, o := range w.Ops {
		if o < 0 {
			return fmt.Errorf("appmap: negative ops %d at PE %d", o, i)
		}
	}
	if w.MsgsPerFlit < 1 || w.CyclesPerOp < 1 || w.RoundOverhead < 0 {
		return fmt.Errorf("appmap: invalid synthetic workload parameters")
	}
	return nil
}

// syntheticBatch is the payload of one synthetic inter-PE packet.
type syntheticBatch struct {
	SrcPE, DstPE int
	Msgs         int64
}

// SyntheticEngine runs a SyntheticWorkload on the cycle-accurate NoC with
// the same bulk-synchronous semantics as the LDPC engine: PEs compute,
// ship their batches, and the round ends when every expected batch has
// arrived.
type SyntheticEngine struct {
	W   *SyntheticWorkload
	Net *noc.Network

	place   []int
	expect  int // batches delivered per round (static)
	pending int
}

// NewSyntheticEngine wires a workload to a mesh; the workload's PE count
// must match the mesh size. The initial placement is the identity.
func NewSyntheticEngine(w *SyntheticWorkload, net *noc.Network) (*SyntheticEngine, error) {
	w.setDefaults()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(w.Ops) != net.Grid.N() {
		return nil, fmt.Errorf("appmap: workload has %d PEs for a %d-node mesh",
			len(w.Ops), net.Grid.N())
	}
	e := &SyntheticEngine{W: w, Net: net, place: make([]int, len(w.Ops))}
	for i := range e.place {
		e.place[i] = i
	}
	for i, row := range w.Traffic {
		for j, v := range row {
			if v > 0 && i != j {
				e.expect++
			}
		}
	}
	return e, nil
}

// SetPlacement installs a new logical-to-physical mapping.
func (e *SyntheticEngine) SetPlacement(place []int) error {
	if len(place) != len(e.place) {
		return fmt.Errorf("appmap: placement has %d entries for %d PEs", len(place), len(e.place))
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

// Placement returns a copy of the current mapping.
func (e *SyntheticEngine) Placement() []int { return append([]int(nil), e.place...) }

// RunRound executes one bulk-synchronous round cycle-accurately and
// returns its duration in cycles. Activity (PE ops plus all network
// events) accumulates in the network's counters exactly as for the LDPC
// engine, so the same power and thermal pipeline applies.
func (e *SyntheticEngine) RunRound() (int64, error) {
	w := e.W
	net := e.Net
	start := net.Cycle

	prevDeliver := net.Deliver
	defer func() { net.Deliver = prevDeliver }()
	e.pending = e.expect
	net.Deliver = func(pkt *noc.Packet) {
		if _, ok := pkt.Payload.(*syntheticBatch); ok {
			e.pending--
			return
		}
		if prevDeliver != nil {
			prevDeliver(pkt)
		}
	}

	var sends []pendingPkt
	maxReady := start
	for p := range w.Ops {
		net.Act.PEOps[e.place[p]] += uint64(w.Ops[p])
		ready := start + int64(w.Ops[p])*int64(w.CyclesPerOp) + int64(w.RoundOverhead)
		if ready > maxReady {
			maxReady = ready
		}
		for d, msgs := range w.Traffic[p] {
			if msgs <= 0 || d == p {
				continue
			}
			nflits := 1 + int((msgs+int64(w.MsgsPerFlit)-1)/int64(w.MsgsPerFlit))
			pkt := &noc.Packet{
				ID:      net.NextID(),
				Src:     net.Grid.Coord(e.place[p]),
				Dst:     net.Grid.Coord(e.place[d]),
				NFlits:  nflits,
				Payload: &syntheticBatch{SrcPE: p, DstPE: d, Msgs: msgs},
			}
			sends = append(sends, pendingPkt{at: ready, pkt: pkt})
		}
	}
	if err := drive(net, sends, maxReady, &e.pending); err != nil {
		return 0, fmt.Errorf("appmap: synthetic round %w", err)
	}
	return net.Cycle - start, nil
}
