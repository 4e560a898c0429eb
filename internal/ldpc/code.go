// Package ldpc implements the workload of the paper's test chips: Low
// Density Parity Check encoding and decoding (Theocharides et al., "Implementing
// LDPC Decoder on Network-on-Chip", ISVLSI 2005 — the paper's reference
// [3]). The decoder is a fixed-point normalized min-sum message-passing
// decoder with a flooding schedule, chosen because flooding makes the
// distributed (on-NoC) evaluation bit-exact with the reference software
// decoder regardless of how variable and check nodes are partitioned across
// PEs.
package ldpc

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Code is a binary LDPC code defined by its parity-check matrix H
// (M checks × N variables), stored sparsely as adjacency lists, together
// with a derived systematic encoder.
type Code struct {
	// N is the codeword length (number of variable nodes).
	N int
	// M is the number of parity checks (check nodes).
	M int

	// CheckNbrs[c] lists the variable nodes participating in check c.
	CheckNbrs [][]int
	// VarNbrs[v] lists the checks in which variable v participates.
	VarNbrs [][]int

	// k is the information length after encoder derivation (N - rank(H)).
	k int
	// parityOf maps each of the k information positions into the codeword,
	// infoCols[i] being the codeword column carrying information bit i;
	// parityCols[j] carries parity bit j.
	infoCols   []int
	parityCols []int
	// parityEq[j] lists the information-bit indices XORed to produce
	// parity bit j (dense row of the systematic A matrix, kept sparse).
	parityEq [][]int
}

// K returns the information length of the code.
func (c *Code) K() int { return c.k }

// Rate returns the code rate K/N.
func (c *Code) Rate() float64 { return float64(c.k) / float64(c.N) }

// Edges returns the total number of Tanner-graph edges, the unit of both
// decoder computation and inter-PE communication.
func (c *Code) Edges() int {
	e := 0
	for _, nb := range c.CheckNbrs {
		e += len(nb)
	}
	return e
}

// NewRegular constructs a (colWeight, rowWeight)-regular-ish LDPC code with
// n variables and m checks via constrained random edge placement: each
// variable connects to colWeight distinct checks, always choosing among the
// checks with the lowest current degree (random tie-break), which keeps row
// weights within one of each other and avoids duplicate edges. The
// construction is deterministic for a given seed.
//
// Each variable draws a fresh random permutation of the checks and takes
// the first colWeight entries of that permutation stably sorted by current
// degree. A stable sort by degree is a stable partition, so those entries
// are the permutation's checks of the lowest degree in permutation order,
// then those of the next degree, and so on; buildRegular selects them with
// one scan of the permutation per degree level instead of sorting, which
// yields the same checks in the same order from the same random draws.
func NewRegular(n, m, colWeight int, seed int64) (*Code, error) {
	if n <= 0 || m <= 0 || m >= n {
		return nil, fmt.Errorf("ldpc: invalid code size n=%d m=%d", n, m)
	}
	if colWeight < 2 || colWeight > m {
		return nil, fmt.Errorf("ldpc: invalid column weight %d", colWeight)
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 32; attempt++ {
		c, err := buildRegular(n, m, colWeight, rng)
		if err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("ldpc: could not derive a systematic encoder for n=%d m=%d w=%d", n, m, colWeight)
}

func buildRegular(n, m, colWeight int, rng *rand.Rand) (*Code, error) {
	c := &Code{
		N:         n,
		M:         m,
		CheckNbrs: make([][]int, m),
		VarNbrs:   make([][]int, n),
	}
	deg := make([]int, m)
	// perDeg[d] counts the checks of degree d; minDeg is the lowest
	// degree present, where every selection scan starts.
	perDeg := []int{m}
	minDeg := 0
	order := make([]int, m)
	picks := make([]int, 0, colWeight)
	for v := 0; v < n; v++ {
		// The same draws as rng.Perm(m), into a reused buffer.
		for i := range order {
			j := rng.Intn(i + 1)
			order[i] = order[j]
			order[j] = i
		}
		// Select colWeight distinct checks of minimal degree: the prefix
		// of order stably sorted by degree. Every degree is picked before
		// any is incremented, as the sort saw them.
		picks = picks[:0]
		for d := minDeg; len(picks) < colWeight; d++ {
			if d >= len(perDeg) || perDeg[d] == 0 {
				continue
			}
			left := perDeg[d]
			for _, ch := range order {
				if deg[ch] != d {
					continue
				}
				picks = append(picks, ch)
				left--
				if len(picks) == colWeight || left == 0 {
					break
				}
			}
		}
		for _, ch := range picks {
			c.CheckNbrs[ch] = append(c.CheckNbrs[ch], v)
			c.VarNbrs[v] = append(c.VarNbrs[v], ch)
			perDeg[deg[ch]]--
			deg[ch]++
			if deg[ch] == len(perDeg) {
				perDeg = append(perDeg, 0)
			}
			perDeg[deg[ch]]++
		}
		for perDeg[minDeg] == 0 {
			minDeg++
		}
	}
	if err := c.deriveEncoder(); err != nil {
		return nil, err
	}
	return c, nil
}

// deriveEncoder Gaussian-eliminates H over GF(2) into [A | I] form (with
// column pivoting) and extracts the sparse parity equations. Codewords are
// laid out in natural column order; infoCols and parityCols record which
// codeword positions hold information and parity.
func (c *Code) deriveEncoder() error {
	m, n := c.M, c.N
	// Dense bit matrix, one row per check, packed into uint64 words.
	words := (n + 63) / 64
	h := make([][]uint64, m)
	cells := make([]uint64, m*words)
	for ch := 0; ch < m; ch++ {
		h[ch] = cells[ch*words : (ch+1)*words : (ch+1)*words]
		for _, v := range c.CheckNbrs[ch] {
			h[ch][v/64] |= 1 << (uint(v) % 64)
		}
	}

	pivotCol := make([]int, 0, m) // pivot column of each eliminated row
	usedCol := make([]bool, n)
	row := 0
	for col := 0; col < n && row < m; col++ {
		w0, bit := col/64, uint64(1)<<(uint(col)%64)
		// Find a row at or below 'row' with a 1 in this column.
		sel := -1
		for r := row; r < m; r++ {
			if h[r][w0]&bit != 0 {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		h[row], h[sel] = h[sel], h[row]
		// The pivot row is zero left of col: earlier pivot columns were
		// eliminated from it, and a skipped column was zero in every row
		// at or below row. So the XOR can start at col's word.
		piv := h[row][w0:]
		for r := 0; r < m; r++ {
			if r != row && h[r][w0]&bit != 0 {
				dst := h[r][w0:]
				for w, x := range piv {
					dst[w] ^= x
				}
			}
		}
		pivotCol = append(pivotCol, col)
		usedCol[col] = true
		row++
	}
	rank := row
	if rank < m {
		// Redundant checks exist; the paper's codes are full rank, and a
		// rank-deficient draw just triggers a reconstruction with fresh
		// randomness.
		return fmt.Errorf("ldpc: H has rank %d < %d", rank, m)
	}

	// Pivot columns carry parity bits; the remaining columns carry
	// information bits.
	c.k = n - rank
	c.parityCols = append([]int(nil), pivotCol...)
	c.infoCols = c.infoCols[:0]
	infoIdx := make([]int, n)
	infoMask := make([]uint64, words)
	for col := 0; col < n; col++ {
		if !usedCol[col] {
			infoIdx[col] = len(c.infoCols)
			c.infoCols = append(c.infoCols, col)
			infoMask[col/64] |= 1 << (uint(col) % 64)
		}
	}
	// After full reduction, row r reads: parity(pivotCol[r]) = XOR of the
	// information columns set in row r, collected in ascending order.
	c.parityEq = make([][]int, rank)
	for r := 0; r < rank; r++ {
		cnt := 0
		for w, x := range h[r] {
			cnt += bits.OnesCount64(x & infoMask[w])
		}
		if cnt == 0 {
			continue // an empty equation stays nil
		}
		eq := make([]int, 0, cnt)
		for w, x := range h[r] {
			for x &= infoMask[w]; x != 0; x &= x - 1 {
				eq = append(eq, infoIdx[w*64+bits.TrailingZeros64(x)])
			}
		}
		c.parityEq[r] = eq
	}
	return nil
}

// Encode maps k information bits to an n-bit codeword satisfying every
// parity check.
func (c *Code) Encode(info []uint8) ([]uint8, error) {
	if len(info) != c.k {
		return nil, fmt.Errorf("ldpc: encoding %d bits with k=%d", len(info), c.k)
	}
	cw := make([]uint8, c.N)
	for i, col := range c.infoCols {
		cw[col] = info[i] & 1
	}
	for j, col := range c.parityCols {
		p := uint8(0)
		for _, i := range c.parityEq[j] {
			p ^= info[i] & 1
		}
		cw[col] = p
	}
	return cw, nil
}

// CheckSyndrome reports whether every parity check is satisfied.
func (c *Code) CheckSyndrome(bits []uint8) bool {
	if len(bits) != c.N {
		return false
	}
	for _, nbrs := range c.CheckNbrs {
		s := uint8(0)
		for _, v := range nbrs {
			s ^= bits[v] & 1
		}
		if s != 0 {
			return false
		}
	}
	return true
}
