package ldpc

import "testing"

// BenchmarkDecodeBlock measures one 16-iteration min-sum decode of a
// paper-scale block (n=2560), the reference against which the on-NoC
// engine is verified.
func BenchmarkDecodeBlock(b *testing.B) {
	code, err := NewRegular(2560, 1280, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder(code)
	ch, err := NewChannel(2.5, code.Rate(), 2)
	if err != nil {
		b.Fatal(err)
	}
	cw, err := code.Encode(make([]uint8, code.K()))
	if err != nil {
		b.Fatal(err)
	}
	llr := ch.Transmit(cw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(llr)
	}
}

// BenchmarkCheckNodeUpdate measures the min-sum check-node kernel at the
// code's degree-6 operating point.
func BenchmarkCheckNodeUpdate(b *testing.B) {
	in := []LLR{5, -3, 7, -2, 9, 1}
	out := make([]LLR, len(in))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CheckNodeUpdate(in, out, 3, 4)
	}
}

// BenchmarkEncode measures systematic encoding of a paper-scale block.
func BenchmarkEncode(b *testing.B) {
	code, err := NewRegular(2560, 1280, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	info := make([]uint8, code.K())
	for i := range info {
		info[i] = uint8(i & 1)
	}
	// The first Encode derives the encoder; keep that out of the timing.
	if _, err := code.Encode(info); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(info); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstruction measures code construction and its rank check (a
// forward Gaussian elimination over GF(2)); the encoder is derived on
// the first Encode, which construction does not call.
func BenchmarkConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRegular(1280, 640, 3, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructionPaper measures construction of paper configuration
// C's code (4000 variables, 2000 checks, column weight 3, seed 1003), the
// size every cold build and every warm reconstitution pays for.
func BenchmarkConstructionPaper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRegular(4000, 2000, 3, 1003); err != nil {
			b.Fatal(err)
		}
	}
}
