package ldpc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCode(t testing.TB, n, m, w int, seed int64) *Code {
	t.Helper()
	c, err := NewRegular(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCodeConstruction(t *testing.T) {
	c := mustCode(t, 120, 60, 3, 1)
	if c.N != 120 || c.M != 60 {
		t.Fatalf("code is %dx%d", c.M, c.N)
	}
	if c.K() != 60 {
		t.Fatalf("K = %d, want 60 (full-rank H)", c.K())
	}
	if c.Edges() != 360 {
		t.Fatalf("edges = %d, want 360", c.Edges())
	}
	// Column weights exactly 3; row weights within ±1 of average.
	for v, nbrs := range c.VarNbrs {
		if len(nbrs) != 3 {
			t.Fatalf("variable %d has degree %d", v, len(nbrs))
		}
		seen := map[int]bool{}
		for _, ch := range nbrs {
			if seen[ch] {
				t.Fatalf("variable %d connects twice to check %d", v, ch)
			}
			seen[ch] = true
		}
	}
	for ch, nbrs := range c.CheckNbrs {
		if len(nbrs) < 5 || len(nbrs) > 7 {
			t.Fatalf("check %d has degree %d, want 6±1", ch, len(nbrs))
		}
	}
	// On the paper's shapes every row weight is within one of the others,
	// as NewRegular promises.
	for _, s := range paperShapes {
		c := mustCode(t, s.n, s.m, s.w, s.seed)
		lo, hi := c.N, 0
		for _, nbrs := range c.CheckNbrs {
			lo, hi = min(lo, len(nbrs)), max(hi, len(nbrs))
		}
		if hi-lo > 1 {
			t.Fatalf("code %dx%d seed %d: row weights span %d..%d", s.m, s.n, s.seed, lo, hi)
		}
	}
}

func TestCodeConstructionRejectsBadParams(t *testing.T) {
	cases := []struct{ n, m, w int }{
		{0, 10, 3}, {10, 0, 3}, {10, 10, 3}, {10, 20, 3}, {20, 10, 1}, {20, 10, 11},
	}
	for _, c := range cases {
		if _, err := NewRegular(c.n, c.m, c.w, 1); err == nil {
			t.Errorf("NewRegular(%d,%d,%d) accepted", c.n, c.m, c.w)
		}
	}
}

// TestEncodeSatisfiesChecks property: every encoded word has zero syndrome.
func TestEncodeSatisfiesChecks(t *testing.T) {
	c := mustCode(t, 96, 48, 3, 2)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		info := make([]uint8, c.K())
		for i := range info {
			info[i] = uint8(r.Intn(2))
		}
		cw, err := c.Encode(info)
		if err != nil {
			return false
		}
		return c.CheckSyndrome(cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEncodeLinear property: encoding is linear over GF(2).
func TestEncodeLinear(t *testing.T) {
	c := mustCode(t, 64, 32, 3, 3)
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 50; iter++ {
		a := make([]uint8, c.K())
		b := make([]uint8, c.K())
		ab := make([]uint8, c.K())
		for i := range a {
			a[i] = uint8(r.Intn(2))
			b[i] = uint8(r.Intn(2))
			ab[i] = a[i] ^ b[i]
		}
		ca, _ := c.Encode(a)
		cb, _ := c.Encode(b)
		cab, _ := c.Encode(ab)
		for i := range cab {
			if cab[i] != ca[i]^cb[i] {
				t.Fatalf("encoding not linear at bit %d", i)
			}
		}
	}
}

func TestEncodeWrongLength(t *testing.T) {
	c := mustCode(t, 64, 32, 3, 5)
	if _, err := c.Encode(make([]uint8, c.K()+1)); err == nil {
		t.Fatal("Encode accepted wrong-length input")
	}
}

func TestZeroCodeword(t *testing.T) {
	c := mustCode(t, 64, 32, 3, 6)
	cw, err := c.Encode(make([]uint8, c.K()))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cw {
		if b != 0 {
			t.Fatalf("zero message produced nonzero bit at %d", i)
		}
	}
}

// TestNoiselessDecode: at effectively infinite SNR the decoder must return
// the transmitted codeword immediately.
func TestNoiselessDecode(t *testing.T) {
	c := mustCode(t, 120, 60, 3, 7)
	dec := NewDecoder(c)
	dec.EarlyStop = true
	r := rand.New(rand.NewSource(8))
	info := make([]uint8, c.K())
	for i := range info {
		info[i] = uint8(r.Intn(2))
	}
	cw, _ := c.Encode(info)
	llr := make([]LLR, c.N)
	for i, b := range cw {
		if b == 1 {
			llr[i] = -MaxLLR
		} else {
			llr[i] = MaxLLR
		}
	}
	got, iters, ok := dec.Decode(llr)
	if !ok {
		t.Fatal("noiseless decode failed")
	}
	if iters != 1 {
		t.Fatalf("noiseless decode took %d iterations", iters)
	}
	for i := range got {
		if got[i] != cw[i] {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

// TestDecodeCorrectsNoise: at a healthy SNR the decoder fixes channel
// errors that hard decisions alone would get wrong.
func TestDecodeCorrectsNoise(t *testing.T) {
	c := mustCode(t, 240, 120, 3, 9)
	dec := NewDecoder(c)
	dec.EarlyStop = true
	dec.MaxIter = 30
	ch, err := NewChannel(3.5, c.Rate(), 10)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	okBlocks, hardErrBlocks := 0, 0
	for blk := 0; blk < 20; blk++ {
		info := make([]uint8, c.K())
		for i := range info {
			info[i] = uint8(r.Intn(2))
		}
		cw, _ := c.Encode(info)
		llr := ch.Transmit(cw)
		hardWrong := false
		for i := range llr {
			hard := uint8(0)
			if llr[i] < 0 {
				hard = 1
			}
			if hard != cw[i] {
				hardWrong = true
				break
			}
		}
		if hardWrong {
			hardErrBlocks++
		}
		got, _, ok := dec.Decode(llr)
		match := ok
		for i := range got {
			if got[i] != cw[i] {
				match = false
				break
			}
		}
		if match {
			okBlocks++
		}
	}
	if hardErrBlocks == 0 {
		t.Fatal("test SNR too high to exercise correction")
	}
	if okBlocks < 18 {
		t.Fatalf("decoder corrected only %d/20 blocks", okBlocks)
	}
}

// TestCheckNodeUpdateBruteForce property: the two-minimum implementation
// matches a brute-force exclusion loop.
func TestCheckNodeUpdateBruteForce(t *testing.T) {
	f := func(seed int64, degRaw uint8) bool {
		deg := 2 + int(degRaw%8)
		r := rand.New(rand.NewSource(seed))
		in := make([]LLR, deg)
		for i := range in {
			in[i] = LLR(r.Intn(2*MaxLLR+1) - MaxLLR)
		}
		out := make([]LLR, deg)
		CheckNodeUpdate(in, out, 3, 4)
		for i := range in {
			sign, min := 1, 1<<30
			for j, m := range in {
				if j == i {
					continue
				}
				v := int(m)
				if v < 0 {
					sign = -sign
					v = -v
				}
				if v < min {
					min = v
				}
			}
			mag := min * 3 / 4
			if mag > MaxLLR {
				mag = MaxLLR
			}
			if int(out[i]) != sign*mag {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestVarNodeUpdateBruteForce property: extrinsic sums match brute force
// with saturation.
func TestVarNodeUpdateBruteForce(t *testing.T) {
	f := func(seed int64, degRaw uint8, chRaw int8) bool {
		deg := 1 + int(degRaw%6)
		r := rand.New(rand.NewSource(seed))
		ch := LLR(int(chRaw) % (MaxLLR + 1))
		in := make([]LLR, deg)
		for i := range in {
			in[i] = LLR(r.Intn(2*MaxLLR+1) - MaxLLR)
		}
		out := make([]LLR, deg)
		total := VarNodeUpdate(ch, in, out)
		wantTotal := int32(ch)
		for _, m := range in {
			wantTotal += int32(m)
		}
		if total != wantTotal {
			return false
		}
		for i := range in {
			want := wantTotal - int32(in[i])
			if want > MaxLLR {
				want = MaxLLR
			}
			if want < -MaxLLR {
				want = -MaxLLR
			}
			if int32(out[i]) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeSaturation(t *testing.T) {
	cases := []struct {
		in   float64
		want LLR
	}{
		{0, 0}, {1.4, 1}, {-1.4, -1}, {100, MaxLLR}, {-100, -MaxLLR},
		{31.4, MaxLLR}, {-31.6, -MaxLLR}, {2.5, 3},
	}
	for _, c := range cases {
		if got := Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestChannelDeterministic(t *testing.T) {
	c := mustCode(t, 64, 32, 3, 12)
	cw, _ := c.Encode(make([]uint8, c.K()))
	ch1, _ := NewChannel(2, c.Rate(), 99)
	ch2, _ := NewChannel(2, c.Rate(), 99)
	a, b := ch1.Transmit(cw), ch2.Transmit(cw)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("channel not deterministic for equal seeds")
		}
	}
}

func TestNewChannelRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewChannel(2, rate, 1); err == nil {
			t.Errorf("NewChannel accepted rate %g", rate)
		}
	}
}

// TestFixedIterationDeterministicDuration: without early stop, Decode
// always runs exactly MaxIter iterations — the property that makes block
// decode time (and the migration period) deterministic.
func TestFixedIterationDeterministicDuration(t *testing.T) {
	c := mustCode(t, 96, 48, 3, 13)
	dec := NewDecoder(c)
	dec.MaxIter = 12
	ch, _ := NewChannel(1.0, c.Rate(), 14)
	for blk := 0; blk < 5; blk++ {
		cw, _ := c.Encode(make([]uint8, c.K()))
		_, iters, _ := dec.Decode(ch.Transmit(cw))
		if iters != 12 {
			t.Fatalf("block %d ran %d iterations, want exactly 12", blk, iters)
		}
	}
}
