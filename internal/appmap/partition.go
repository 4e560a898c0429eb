// Package appmap maps the LDPC decoder onto the NoC: it partitions the
// Tanner graph across processing elements and runs the traffic of
// message-passing decoding cycle-accurately on the mesh, producing the
// switching activity, per-block timing and traffic irregularity that drive
// the thermal evaluation. The traffic does not depend on the decoded data,
// so no message values are simulated; the package's tests pin it against
// a frozen value-carrying decoder. Partitions are expressed over *logical*
// PEs; a placement vector maps logical PEs to physical blocks, which is
// exactly the level at which the paper's runtime reconfiguration operates
// (the logical plane moves, the partition does not).
package appmap

import (
	"fmt"
	"math/rand"

	"hotnoc/internal/ldpc"
)

// Partition assigns every variable and check node to a logical PE.
type Partition struct {
	NPE     int
	VarPE   []int
	CheckPE []int
}

// Validate checks index ranges and that every PE owns at least one node.
func (p *Partition) Validate(code *ldpc.Code) error {
	if len(p.VarPE) != code.N || len(p.CheckPE) != code.M {
		return fmt.Errorf("appmap: partition covers %d vars, %d checks; code has %d, %d",
			len(p.VarPE), len(p.CheckPE), code.N, code.M)
	}
	used := make([]bool, p.NPE)
	for v, pe := range p.VarPE {
		if pe < 0 || pe >= p.NPE {
			return fmt.Errorf("appmap: variable %d on PE %d of %d", v, pe, p.NPE)
		}
		used[pe] = true
	}
	for c, pe := range p.CheckPE {
		if pe < 0 || pe >= p.NPE {
			return fmt.Errorf("appmap: check %d on PE %d of %d", c, pe, p.NPE)
		}
		used[pe] = true
	}
	for pe, u := range used {
		if !u {
			return fmt.Errorf("appmap: PE %d owns no nodes", pe)
		}
	}
	return nil
}

// Contiguous stripes variables and checks across PEs in index order —
// the balanced baseline partition.
func Contiguous(code *ldpc.Code, npe int) *Partition {
	p := &Partition{NPE: npe, VarPE: make([]int, code.N), CheckPE: make([]int, code.M)}
	for v := range p.VarPE {
		p.VarPE[v] = v * npe / code.N
	}
	for c := range p.CheckPE {
		p.CheckPE[c] = c * npe / code.M
	}
	return p
}

// Interleaved deals nodes round-robin, maximising traffic spread (an
// all-to-all communication pattern).
func Interleaved(code *ldpc.Code, npe int) *Partition {
	p := &Partition{NPE: npe, VarPE: make([]int, code.N), CheckPE: make([]int, code.M)}
	for v := range p.VarPE {
		p.VarPE[v] = v % npe
	}
	for c := range p.CheckPE {
		p.CheckPE[c] = c % npe
	}
	return p
}

// Skewed concentrates check processing: a fraction `heavyShare` of all
// checks lands on the first `heavyPEs` PEs (variables stay striped). This
// reproduces the paper's observation that configurations differ in "the
// amount of computation mapped to a single PE" — check nodes dominate
// decoder energy, so these PEs become the hotspot candidates.
func Skewed(code *ldpc.Code, npe, heavyPEs int, heavyShare float64, seed int64) (*Partition, error) {
	if heavyPEs < 1 || heavyPEs >= npe {
		return nil, fmt.Errorf("appmap: heavyPEs %d outside [1,%d)", heavyPEs, npe)
	}
	if heavyShare <= 0 || heavyShare >= 1 {
		return nil, fmt.Errorf("appmap: heavyShare %g outside (0,1)", heavyShare)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Partition{NPE: npe, VarPE: make([]int, code.N), CheckPE: make([]int, code.M)}
	for v := range p.VarPE {
		p.VarPE[v] = v * npe / code.N
	}
	for c := range p.CheckPE {
		if rng.Float64() < heavyShare {
			p.CheckPE[c] = rng.Intn(heavyPEs)
		} else {
			p.CheckPE[c] = heavyPEs + rng.Intn(npe-heavyPEs)
		}
	}
	return p, nil
}

// SkewedBoth concentrates both check and variable processing on the heavy
// PEs: heavyShare of the checks and varShare of the variables land on the
// first heavyPEs PEs. Because variable-heavy PEs also carry the chip's
// LLR/decision I/O traffic, this is the partition shape that produces the
// paper's warm bands near the I/O interface.
func SkewedBoth(code *ldpc.Code, npe, heavyPEs int, heavyShare, varShare float64, seed int64) (*Partition, error) {
	p, err := Skewed(code, npe, heavyPEs, heavyShare, seed)
	if err != nil {
		return nil, err
	}
	if varShare <= 0 || varShare >= 1 {
		return nil, fmt.Errorf("appmap: varShare %g outside (0,1)", varShare)
	}
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	for v := range p.VarPE {
		if rng.Float64() < varShare {
			p.VarPE[v] = rng.Intn(heavyPEs)
		} else {
			p.VarPE[v] = heavyPEs + rng.Intn(npe-heavyPEs)
		}
	}
	return p, nil
}

// phaseCounts is the decoder's work per iteration under a partition,
// split by decoder phase. It depends only on the code and the partition,
// never on message values: it is the schedule the engine runs on the
// network and the traffic model the placement annealer optimises.
type phaseCounts struct {
	// load[p] counts the variables PE p latches channel LLRs into at the
	// start of a block.
	load []int64
	// ops[0][p] and ops[1][p] count the edge messages PE p computes in the
	// check and the variable phase: the edges of its checks and of its
	// variables.
	ops [2][]int64
	// cnt[p][d] counts the edges from a check on PE p to a variable on PE
	// d != p. The check phase sends cnt[p][d] messages from p to d, and
	// the variable phase sends cnt[d][p] messages from p to d; edges
	// inside one PE never enter the network.
	cnt [][]int64
}

// countPhases derives a partition's phaseCounts in one pass over the
// Tanner graph.
func countPhases(code *ldpc.Code, p *Partition) phaseCounts {
	pc := phaseCounts{
		load: make([]int64, p.NPE),
		ops:  [2][]int64{make([]int64, p.NPE), make([]int64, p.NPE)},
		cnt:  make([][]int64, p.NPE),
	}
	for i := range pc.cnt {
		pc.cnt[i] = make([]int64, p.NPE)
	}
	for _, vp := range p.VarPE {
		pc.load[vp]++
	}
	for c, nbrs := range code.CheckNbrs {
		cp := p.CheckPE[c]
		pc.ops[0][cp] += int64(len(nbrs))
		for _, v := range nbrs {
			vp := p.VarPE[v]
			pc.ops[1][vp]++
			if cp != vp {
				pc.cnt[cp][vp]++
			}
		}
	}
	return pc
}

// OpsPerPE returns each logical PE's message computations per decoding
// iteration (check-phase plus variable-phase edge updates) — the compute
// load that, multiplied by per-op energy, sets the PE's dynamic power.
func OpsPerPE(code *ldpc.Code, p *Partition) []int64 {
	pc := countPhases(code, p)
	ops := pc.ops[0]
	for i, o := range pc.ops[1] {
		ops[i] += o
	}
	return ops
}

// TrafficMatrix returns the number of inter-PE messages per decoding
// iteration between each ordered logical PE pair: both decoder phases'
// messages, cnt + cntᵀ in phaseCounts' terms. The matrix is symmetric
// with a zero diagonal.
func TrafficMatrix(code *ldpc.Code, p *Partition) [][]int64 {
	cnt := countPhases(code, p).cnt
	m := make([][]int64, p.NPE)
	for i := range m {
		m[i] = make([]int64, p.NPE)
		for j := range m[i] {
			m[i][j] = cnt[i][j] + cnt[j][i]
		}
	}
	return m
}
