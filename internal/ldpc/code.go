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
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// Code is a binary LDPC code defined by its parity-check matrix H
// (M checks × N variables), stored sparsely as adjacency lists. K and
// Rate come from the rank of H, checked at construction; the systematic
// encoder is derived from H on the first Encode.
//
// A Code is safe for concurrent use. It must not be copied after
// construction.
type Code struct {
	// N is the codeword length (number of variable nodes).
	N int
	// M is the number of parity checks (check nodes).
	M int

	// CheckNbrs[c] lists the variable nodes participating in check c.
	CheckNbrs [][]int
	// VarNbrs[v] lists the checks in which variable v participates.
	VarNbrs [][]int

	// k is the information length, N - rank(H).
	k int

	// encoderOnce guards the systematic encoder below, which
	// deriveEncoder fills on the first Encode.
	encoderOnce sync.Once
	// infoCols[i] is the codeword column carrying information bit i;
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
// weights within one of each other and avoids duplicate edges. A draw
// whose H is rank deficient is discarded and drawn again, so every code
// has K = n - m. The construction is deterministic for a given seed.
//
// Each variable draws a fresh random permutation of the checks and takes
// the first colWeight entries of that permutation stably sorted by current
// degree. A stable sort by degree is a stable partition, so those entries
// are the permutation's checks of the lowest degree in permutation order,
// then those of the next degree, and so on; buildRegular selects them with
// one scan of the permutation per degree level instead of sorting, which
// yields the same checks in the same order from the same random draws.
//
// The permutations are rand.New(rand.NewSource(seed)).Perm's, drawn from
// a stream that continues the source's own sequence (see stream), so
// every attempt reads the values the source would have produced next.
//
// NewRegular only checks the rank of H; the systematic encoder is derived
// on the first Encode, so a code that is never encoded never pays for it.
func NewRegular(n, m, colWeight int, seed int64) (*Code, error) {
	if n <= 0 || m <= 0 || m >= n || m > math.MaxInt32 {
		return nil, fmt.Errorf("ldpc: invalid code size n=%d m=%d", n, m)
	}
	if colWeight < 2 || colWeight > m {
		return nil, fmt.Errorf("ldpc: invalid column weight %d", colWeight)
	}
	s := newStream(rand.NewSource(seed).(rand.Source64))
	// draws[i] makes the draws of Intn(i+1), shared by every attempt.
	draws := make([]intnDraw, m)
	for i := range draws {
		draws[i] = newIntnDraw(i + 1)
	}
	for attempt := 0; attempt < 32; attempt++ {
		c, err := buildRegular(n, m, colWeight, s, draws)
		if err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("ldpc: could not derive a systematic encoder for n=%d m=%d w=%d", n, m, colWeight)
}

// The generator behind rand.NewSource keeps its last streamLag outputs in
// a ring. Each Uint64 adds the outputs streamLag and streamTap steps back,
// mod 2^64, and writes the sum over the older of the two. Its output
// sequence therefore satisfies y[k] = y[k-streamLag] + y[k-streamTap]
// for every k >= streamLag, and Int63 returns y & (1<<63 - 1).
const (
	streamLag = 607
	streamTap = 273
	// streamBlock is the number of values one refill computes, a whole
	// number of streamTap chunks.
	streamBlock = 8 * streamTap
)

// stream continues a rand.NewSource generator's output sequence in this
// package, so drawing a value is a slice read rather than an interface
// call that cannot be inlined. newStream reads streamLag consecutive
// outputs through the source's own Uint64, so the seeding, and the
// table it mixes in, stay math/rand's. Every later value follows from
// those by the recurrence alone, which is exactly what the source would
// compute, so the stream reproduces the source value for value.
//
// buf holds streamLag values of history followed by a block of
// streamBlock values; pos is the next unread value. refill slides the
// newest streamLag values to the front and computes the next block.
type stream struct {
	buf []uint64
	pos int
}

// newStream takes over src: it reads streamLag outputs, and src is not
// read again. The stream then yields the values src would have produced
// next.
func newStream(src rand.Source64) *stream {
	s := &stream{buf: make([]uint64, streamLag+streamBlock)}
	s.pos = len(s.buf) - streamLag
	for i := s.pos; i < len(s.buf); i++ {
		s.buf[i] = src.Uint64()
	}
	return s
}

// refill computes the next streamBlock values after the newest streamLag.
// Value c+i of a chunk starting at c reads values c+i-streamLag and
// c+i-streamTap, both before c, so within a chunk of streamTap values
// there is no dependence between iterations; fixed-size array views
// keep the loop free of bounds checks.
//
//hotnoc:noalloc
func (s *stream) refill() {
	b := s.buf
	copy(b[:streamLag], b[len(b)-streamLag:])
	for c := streamLag; c < len(b); c += streamTap {
		dst := (*[streamTap]uint64)(b[c:])
		old := (*[streamTap]uint64)(b[c-streamLag:])
		tap := (*[streamTap]uint64)(b[c-streamTap:])
		for i := range dst {
			dst[i] = old[i] + tap[i]
		}
	}
	s.pos = streamLag
}

// intnDraw holds what drawing rand.(*Rand).Intn(n) takes for one
// n < 2^31, computed once: Int31n draws 31-bit values from the Source
// the Rand wraps, redraws any above max, and reduces the accepted one
// modulo n. rem does that reduction with a mask for a power of two and
// otherwise with Lemire, Kaser & Kurz's multiply-shift remainder ("Faster
// Remainder by Direct Computation", 2019), exact for every 32-bit
// dividend, in place of Int31n's division.
type intnDraw struct {
	// mul is ceil(2^64/n), or 0 when n is a power of two.
	mul uint64
	// max is Int31n's rejection bound, 2^31-1 - 2^31 mod n.
	max uint32
	n   uint32
}

func newIntnDraw(n int) intnDraw {
	d := intnDraw{max: 1<<31 - 1, n: uint32(n)}
	if n&(n-1) != 0 {
		d.max -= (1 << 31) % d.n
		d.mul = ^uint64(0)/uint64(n) + 1
	}
	return d
}

// rem returns v mod n for an accepted draw v <= max.
func (d *intnDraw) rem(v uint32) int {
	if d.mul == 0 {
		return int(v & (d.n - 1))
	}
	r, _ := bits.Mul64(d.mul*uint64(v), uint64(d.n))
	return int(r)
}

// fillPerm fills order with rand.(*Rand).Perm(len(order)) of the Rand
// whose source s continues, making the same draws from the same values;
// draws[i] draws Intn(i+1). Int31n's 31-bit draw is Int63() >> 32, bits
// 32..62 of the raw value y, read here straight from the buffer as
// y<<1>>33. The draw is written out rather than called, keeping the
// stream position in a register; refill runs once per streamBlock values.
//
//hotnoc:noalloc
func fillPerm(order []int, draws []intnDraw, s *stream) {
	buf, pos := s.buf, s.pos
	for i := range order {
		d := &draws[i]
		var v uint32
		for {
			if pos == len(buf) {
				s.refill()
				pos = s.pos
			}
			v = uint32(buf[pos] << 1 >> 33)
			pos++
			if v <= d.max {
				break
			}
		}
		j := d.rem(v)
		order[i] = order[j]
		order[j] = i
	}
	s.pos = pos
}

func buildRegular(n, m, colWeight int, s *stream, draws []intnDraw) (*Code, error) {
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
		fillPerm(order, draws, s)
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
	if _, pivotCol := c.eliminate(false); len(pivotCol) < m {
		// Redundant checks exist; the paper's codes are full rank, and a
		// rank-deficient draw just triggers a reconstruction with fresh
		// randomness.
		return nil, fmt.Errorf("ldpc: H has rank %d < %d", len(pivotCol), m)
	}
	c.k = n - m
	return c, nil
}

// eliminate reduces H over GF(2) with column pivoting, one row per check
// packed into uint64 words, and returns the rows and the pivot column of
// each of the first len(pivotCol) = rank(H) of them. With full set each
// pivot row is XORed into every other row holding its column, leaving
// the reduced row echelon form; otherwise only into the rows below it,
// which is all the rank needs. Rows at or below the pivot evolve the
// same either way, so both find the same pivot columns.
func (c *Code) eliminate(full bool) (h [][]uint64, pivotCol []int) {
	m, n := c.M, c.N
	words := (n + 63) / 64
	h = make([][]uint64, m)
	cells := make([]uint64, m*words)
	for ch := 0; ch < m; ch++ {
		h[ch] = cells[ch*words : (ch+1)*words : (ch+1)*words]
		for _, v := range c.CheckNbrs[ch] {
			h[ch][v/64] |= 1 << (uint(v) % 64)
		}
	}

	pivotCol = make([]int, 0, m)
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
		first := row + 1
		if full {
			first = 0
		}
		for r := first; r < m; r++ {
			if r != row && h[r][w0]&bit != 0 {
				dst := h[r][w0:]
				for w, x := range piv {
					dst[w] ^= x
				}
			}
		}
		pivotCol = append(pivotCol, col)
		row++
	}
	return h, pivotCol
}

// deriveEncoder Gauss–Jordan eliminates H into [A | I] form (with column
// pivoting) and extracts the sparse parity equations. Codewords are laid
// out in natural column order; infoCols and parityCols record which
// codeword positions hold information and parity. The reduced row
// echelon form is unique, so the encoder depends on H alone. H has full
// rank, as NewRegular checked.
func (c *Code) deriveEncoder() {
	h, pivotCol := c.eliminate(true)
	n, words := c.N, (c.N+63)/64

	// Pivot columns carry parity bits; the remaining columns carry
	// information bits.
	c.parityCols = pivotCol
	usedCol := make([]bool, n)
	for _, col := range pivotCol {
		usedCol[col] = true
	}
	c.infoCols = make([]int, 0, c.k)
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
	c.parityEq = make([][]int, len(pivotCol))
	for r := range c.parityEq {
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
}

// Encode maps k information bits to an n-bit codeword satisfying every
// parity check. The first call derives the systematic encoder.
func (c *Code) Encode(info []uint8) ([]uint8, error) {
	if len(info) != c.k {
		return nil, fmt.Errorf("ldpc: encoding %d bits with k=%d", len(info), c.k)
	}
	c.encoderOnce.Do(c.deriveEncoder)
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
