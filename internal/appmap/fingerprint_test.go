package appmap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/noc"
)

// digest is a compact FNV-1a fingerprint of a counter slice.
func digest[T uint8 | uint64](s []T) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDecodeFingerprint pins one paper-scale decode bit for bit: its
// duration, every per-block activity counter and the network statistics
// on the Engine, and the decisions of the value-carrying RefEngine on the
// same block. Any change to the NoC kernel or the decode event loop that
// alters a simulated cycle, flit or switching event fails here, inside
// go test, before the bench harness's golden digests see it.
func TestDecodeFingerprint(t *testing.T) {
	eng, llr := paperDecode(t)
	cycles, err := eng.Decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	refNet, err := noc.New(geom.NewGrid(4, 4), noc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefEngine(eng.Code, eng.Part, refNet)
	if err != nil {
		t.Fatal(err)
	}
	decisions, _, err := ref.Decode(llr)
	if err != nil {
		t.Fatal(err)
	}
	act := eng.Net.Act
	got := map[string]string{
		"cycles":    fmt.Sprint(cycles),
		"decisions": digest(decisions),
		"BufWrites": digest(act.BufWrites),
		"BufReads":  digest(act.BufReads),
		"Xbar":      digest(act.Xbar),
		"Arb":       digest(act.Arb),
		"Link":      digest(act.Link),
		"PEOps":     digest(act.PEOps),
		"ConvWords": digest(act.ConvWords),
	}
	want := map[string]string{
		"cycles":    "30832",
		"decisions": "f6dacb741b465024",
		"BufWrites": "b7a413839db961af",
		"BufReads":  "b7a413839db961af",
		"Xbar":      "b7a413839db961af",
		"Arb":       "b7a413839db961af",
		"Link":      "d39ca4d850556928",
		"PEOps":     "67c808e0fb29c77e",
		"ConvWords": "8421ae126c7ced25",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %s, want %s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unpinned %s = %s", k, got[k])
		}
	}

	// Fast-forwarding idle spans and replaying repeated phases are
	// host-side bookkeeping: both must happen in a decode, and neither may
	// change any simulated count. Three of the 32 half-iterations are
	// simulated (check, variable, then check again from a new arbitration
	// state); the other 29 are replayed.
	const wantStepped = 1299
	st := eng.Net.Stats
	stepped := st.Cycles - st.SkippedCycles - st.ReplayedCycles
	if st.SkippedCycles <= 0 || st.ReplayedCycles <= 0 || stepped != wantStepped {
		t.Errorf("skipped %d, replayed %d, stepped %d of %d cycles, want some skipped, some replayed and %d stepped",
			st.SkippedCycles, st.ReplayedCycles, stepped, st.Cycles, wantStepped)
	}
	st.SkippedCycles, st.ReplayedCycles = 0, 0
	wantStats := noc.Stats{
		PacketsSent:      7680,
		PacketsDelivered: 7680,
		FlitsInjected:    39840,
		FlitsDelivered:   39840,
		LatencySum:       655824,
		LatencyMax:       212,
		Cycles:           30832,
	}
	if st != wantStats {
		t.Errorf("stats = %+v, want %+v", st, wantStats)
	}
}
