package ldpc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refNewRegular is the straightforward construction NewRegular must
// reproduce exactly: a stable sort of a fresh rng.Perm(m) by check degree
// for every variable, and a Gaussian elimination that XORs whole rows and
// reads the parity equations back one column at a time. It exists only as
// a differential oracle; attempts reports how many draws it took.
func refNewRegular(n, m, colWeight int, seed int64) (c *Code, attempts int, err error) {
	if n <= 0 || m <= 0 || m >= n {
		return nil, 0, fmt.Errorf("ldpc: invalid code size n=%d m=%d", n, m)
	}
	if colWeight < 2 || colWeight > m {
		return nil, 0, fmt.Errorf("ldpc: invalid column weight %d", colWeight)
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 32; attempt++ {
		c, err := refBuildRegular(n, m, colWeight, rng)
		if err == nil {
			return c, attempt + 1, nil
		}
	}
	return nil, 32, fmt.Errorf("ldpc: could not derive a systematic encoder for n=%d m=%d w=%d", n, m, colWeight)
}

func refBuildRegular(n, m, colWeight int, rng *rand.Rand) (*Code, error) {
	c := &Code{
		N:         n,
		M:         m,
		CheckNbrs: make([][]int, m),
		VarNbrs:   make([][]int, n),
	}
	deg := make([]int, m)
	for v := 0; v < n; v++ {
		order := rng.Perm(m)
		sort.SliceStable(order, func(i, j int) bool { return deg[order[i]] < deg[order[j]] })
		for _, ch := range order[:colWeight] {
			c.CheckNbrs[ch] = append(c.CheckNbrs[ch], v)
			c.VarNbrs[v] = append(c.VarNbrs[v], ch)
			deg[ch]++
		}
	}
	if err := refDeriveEncoder(c); err != nil {
		return nil, err
	}
	return c, nil
}

func refDeriveEncoder(c *Code) error {
	m, n := c.M, c.N
	words := (n + 63) / 64
	h := make([][]uint64, m)
	for ch := 0; ch < m; ch++ {
		h[ch] = make([]uint64, words)
		for _, v := range c.CheckNbrs[ch] {
			h[ch][v/64] |= 1 << (uint(v) % 64)
		}
	}
	get := func(row []uint64, col int) bool { return row[col/64]>>(uint(col)%64)&1 == 1 }

	pivotCol := make([]int, 0, m)
	usedCol := make([]bool, n)
	row := 0
	for col := 0; col < n && row < m; col++ {
		sel := -1
		for r := row; r < m; r++ {
			if get(h[r], col) {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		h[row], h[sel] = h[sel], h[row]
		for r := 0; r < m; r++ {
			if r != row && get(h[r], col) {
				for w := 0; w < words; w++ {
					h[r][w] ^= h[row][w]
				}
			}
		}
		pivotCol = append(pivotCol, col)
		usedCol[col] = true
		row++
	}
	rank := row
	if rank < m {
		return fmt.Errorf("ldpc: H has rank %d < %d", rank, m)
	}

	c.k = n - rank
	c.parityCols = append([]int(nil), pivotCol...)
	c.infoCols = c.infoCols[:0]
	infoIdx := make([]int, n)
	for col := 0; col < n; col++ {
		if !usedCol[col] {
			infoIdx[col] = len(c.infoCols)
			c.infoCols = append(c.infoCols, col)
		}
	}
	c.parityEq = make([][]int, rank)
	for r := 0; r < rank; r++ {
		var eq []int
		for col := 0; col < n; col++ {
			if !usedCol[col] && get(h[r], col) {
				eq = append(eq, infoIdx[col])
			}
		}
		c.parityEq[r] = eq
	}
	return nil
}

// assertMatchesRef compares NewRegular against the oracle on one shape:
// the whole Code (adjacency, encoder columns and parity equations) or
// the error. It returns the oracle's attempt count.
func assertMatchesRef(t *testing.T, n, m, w int, seed int64) int {
	t.Helper()
	want, attempts, wantErr := refNewRegular(n, m, w, seed)
	got, err := NewRegular(n, m, w, seed)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("NewRegular(%d,%d,%d,%d) error %v, oracle %v", n, m, w, seed, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewRegular(%d,%d,%d,%d) differs from the sort-based construction", n, m, w, seed)
	}
	return attempts
}

// paperShapes are chipcfg.Specs() A–E's (CodeN, CodeM, ColWeight,
// CodeSeed) at scale 1 and at their Scaled(8) sizes.
var paperShapes = []struct {
	n, m, w int
	seed    int64
}{
	{2560, 1280, 3, 1001}, {2560, 1280, 3, 1002},
	{4000, 2000, 3, 1003}, {4000, 2000, 3, 1004}, {4000, 2000, 3, 1005},
	{320, 160, 3, 1001}, {320, 160, 3, 1002},
	{500, 250, 3, 1003}, {500, 250, 3, 1004}, {500, 250, 3, 1005},
}

// TestNewRegularMatchesRefPaper: the paper's five codes, full size and
// scaled, are bit-for-bit the sort-based construction.
func TestNewRegularMatchesRefPaper(t *testing.T) {
	for _, s := range paperShapes {
		assertMatchesRef(t, s.n, s.m, s.w, s.seed)
	}
}

// TestNewRegularMatchesRefRandom sweeps seeded random shapes with column
// weight 2–5. Even column weights are always rank deficient (every column
// adds an even number of ones, so the rows of H sum to zero) and exercise
// the exhausted-retry error path.
func TestNewRegularMatchesRefRandom(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		m := 4 + r.Intn(120)
		n := m + 1 + r.Intn(2*m)
		w := 2 + r.Intn(4)
		if w > m {
			w = m
		}
		assertMatchesRef(t, n, m, w, r.Int63())
	}
}

// TestNewRegularMatchesRefRetry: a shape whose first draws are rank
// deficient and a later one succeeds takes the same retry path.
func TestNewRegularMatchesRefRetry(t *testing.T) {
	if a := assertMatchesRef(t, 12, 6, 3, 3); a < 2 {
		t.Fatalf("shape took %d attempt(s); pick one that retries", a)
	}
}
