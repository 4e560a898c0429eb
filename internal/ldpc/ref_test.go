package ldpc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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
// the error. NewRegular derives the encoder only on the first Encode:
// before that the code has no encoder, and its K and Rate, from the rank
// check alone, must already equal the oracle's. The comparison then
// derives the encoder and marks the oracle's eagerly built one derived,
// leaving both sync.Onces in the same state. It returns the oracle's
// attempt count.
func assertMatchesRef(t *testing.T, n, m, w int, seed int64) int {
	t.Helper()
	want, attempts, wantErr := refNewRegular(n, m, w, seed)
	got, err := NewRegular(n, m, w, seed)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("NewRegular(%d,%d,%d,%d) error %v, oracle %v", n, m, w, seed, err, wantErr)
	}
	if got != nil {
		if got.infoCols != nil || got.parityCols != nil || got.parityEq != nil {
			t.Fatalf("NewRegular(%d,%d,%d,%d) derived the encoder before the first Encode", n, m, w, seed)
		}
		if got.K() != want.K() || got.Rate() != want.Rate() {
			t.Fatalf("NewRegular(%d,%d,%d,%d): K %d rate %v, oracle K %d rate %v",
				n, m, w, seed, got.K(), got.Rate(), want.K(), want.Rate())
		}
		got.encoderOnce.Do(got.deriveEncoder)
	}
	if want != nil {
		want.encoderOnce.Do(func() {})
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

// intn makes one draw of rand.(*Rand).Intn(n) from src the way fillPerm
// does, from d = newIntnDraw(n).
func intn(d *intnDraw, src rand.Source) int {
	v := uint32(src.Int63() >> 32)
	for v > d.max {
		v = uint32(src.Int63() >> 32)
	}
	return d.rem(v)
}

// inStep fails unless src and rng, seeded alike, have consumed the same
// number of values.
func inStep(t *testing.T, src rand.Source, rng *rand.Rand) {
	t.Helper()
	if a, b := src.Int63(), rng.Int63(); a != b {
		t.Fatalf("streams out of step: %d vs %d", a, b)
	}
}

// checkBound checks d's rejection bound directly, since a draw equal to
// it is too rare to meet: [0, max] must be the longest prefix of
// [0, 2^31) holding a whole number of residue cycles mod n.
func checkBound(t *testing.T, d *intnDraw, n int) {
	t.Helper()
	if k := uint64(d.max) + 1; k%uint64(n) != 0 || k+uint64(n) <= 1<<31 {
		t.Fatalf("Intn(%d): rejection bound %d", n, d.max)
	}
}

// TestIntnDrawMatchesRand: an intnDraw consumes a Source exactly as
// rand.(*Rand).Intn does and returns the same values. Every n in
// [1, 1<<16] is drawn in turn from one stream per seed, so one extra or
// missing draw desynchronizes every later one. The n near and just above
// 1<<30 make Int31n reject about half its draws (the rejection path);
// the powers of two take the mask path; the rest, Lemire's remainder.
func TestIntnDrawMatchesRand(t *testing.T) {
	for _, seed := range []int64{1, 1003, -7} {
		src, rng := rand.NewSource(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1<<16; i++ {
			d := newIntnDraw(i + 1)
			checkBound(t, &d, i+1)
			if got, want := intn(&d, src), rng.Intn(i+1); got != want {
				t.Fatalf("seed %d: Intn(%d) drew %d, rand drew %d", seed, i+1, got, want)
			}
		}
		inStep(t, src, rng)
	}
	large := []int{1<<30 - 1, 1<<30 + 1, 1<<30 + 3, 1<<30 + 12345, 3 << 29, 1<<31 - 3, 1<<31 - 1}
	for k := 0; k <= 30; k++ {
		large = append(large, 1<<k)
	}
	for _, n := range large {
		src, rng := rand.NewSource(int64(n)), rand.New(rand.NewSource(int64(n)))
		d := newIntnDraw(n)
		checkBound(t, &d, n)
		for r := 0; r < 2000; r++ {
			if got, want := intn(&d, src), rng.Intn(n); got != want {
				t.Fatalf("Intn(%d) draw %d: got %d, rand drew %d", n, r, got, want)
			}
		}
		inStep(t, src, rng)
	}
}

// next returns the stream's next raw value, the one a rand.NewSource
// generator's Uint64 would return.
func (s *stream) next() uint64 {
	if s.pos == len(s.buf) {
		s.refill()
	}
	y := s.buf[s.pos]
	s.pos++
	return y
}

// TestStreamMatchesSource: a stream yields its source's Uint64 sequence
// for over a million values, across hundreds of refills. Seed 0, the
// negative seeds and the seeds above math.MaxInt32 take the paths where
// Seed remaps its argument; the last case takes over a source that has
// already produced values.
func TestStreamMatchesSource(t *testing.T) {
	const count = 1<<20 + streamBlock/2
	for _, seed := range []int64{0, 1, 1003, -1, -7, math.MinInt64, math.MaxInt32, math.MaxInt32 + 5, 1 << 40, math.MaxInt64} {
		src := rand.NewSource(seed).(rand.Source64)
		want := rand.NewSource(seed).(rand.Source64)
		if seed == math.MaxInt64 {
			for i := 0; i < 1000; i++ {
				src.Uint64()
				want.Uint64()
			}
		}
		s := newStream(src)
		for i := 0; i < count; i++ {
			if got, w := s.next(), want.Uint64(); got != w {
				t.Fatalf("seed %d: value %d is %#x, source gives %#x", seed, i, got, w)
			}
		}
	}
}

// TestFillPermDrawsMatchRand: fillPerm makes rand.Perm's draws for every
// i in [0, 1<<16), leaves its stream in step with the Rand, and allocates
// nothing, the runtime complement of its //hotnoc:noalloc annotation.
// Perm is a bijection from its draws to permutations, so an equal
// permutation means every draw was equal.
func TestFillPermDrawsMatchRand(t *testing.T) {
	const m = 1 << 16
	draws := make([]intnDraw, m)
	for i := range draws {
		draws[i] = newIntnDraw(i + 1)
	}
	order := make([]int, m)
	s, rng := newStream(rand.NewSource(9).(rand.Source64)), rand.New(rand.NewSource(9))
	fillPerm(order, draws, s)
	if !reflect.DeepEqual(order, rng.Perm(m)) {
		t.Fatal("fillPerm differs from rand.Perm")
	}
	if a, b := s.next(), rng.Uint64(); a != b {
		t.Fatalf("stream out of step with rand: %#x vs %#x", a, b)
	}
	if a := testing.AllocsPerRun(5, func() { fillPerm(order, draws, s) }); a != 0 {
		t.Fatalf("fillPerm made %v allocations, want 0", a)
	}
}

// TestLazyEncoderConcurrent: concurrent first Encodes on one fresh Code
// derive the encoder once, race-free under -race, and each returns the
// oracle's codeword, which satisfies every check.
func TestLazyEncoderConcurrent(t *testing.T) {
	const n, m, w, seed = 500, 250, 3, 1003
	ref, _, err := refNewRegular(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref.encoderOnce.Do(func() {}) // the oracle's encoder is built eagerly
	code, err := NewRegular(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			info := make([]uint8, code.K())
			for i := range info {
				info[i] = uint8(rng.Intn(2))
			}
			cw, err := code.Encode(info)
			if err != nil {
				t.Error(err)
				return
			}
			want, _ := ref.Encode(info)
			if !code.CheckSyndrome(cw) || !reflect.DeepEqual(cw, want) {
				t.Errorf("goroutine %d: codeword fails its checks or differs from the oracle's", g)
			}
		}()
	}
	wg.Wait()
}
