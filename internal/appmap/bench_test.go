package appmap

import (
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// paperDecode builds the paper-scale decode setup (n=2560 over a 4x4
// mesh, skewed partition, 16 iterations) and one noisy block for it.
func paperDecode(tb testing.TB) (*Engine, []ldpc.LLR) {
	tb.Helper()
	code, err := ldpc.NewRegular(2560, 1280, 3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := Skewed(code, 16, 4, 0.5, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := noc.New(geom.NewGrid(4, 4), noc.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(code, part, net)
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := ldpc.NewChannel(2.5, code.Rate(), 3)
	if err != nil {
		tb.Fatal(err)
	}
	cw, err := code.Encode(make([]uint8, code.K()))
	if err != nil {
		tb.Fatal(err)
	}
	return eng, ch.Transmit(cw)
}

// BenchmarkDecodeOnNoC measures one distributed block decode at paper
// scale — the dominant cost of every experiment leg.
func BenchmarkDecodeOnNoC(b *testing.B) {
	eng, llr := paperDecode(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Decode(llr); err != nil {
			b.Fatal(err)
		}
	}
}
