package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"hotnoc/internal/geom"
)

// digest is a compact FNV-1a fingerprint of a counter slice.
func digest(s []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMigrationFingerprint pins one full-size 5x5 rotation migration bit
// for bit: its MigrationStats and every per-block activity counter it
// charges. A change to the NoC kernel that alters a single cycle or
// switching event of the state transfer fails here.
func TestMigrationFingerprint(t *testing.T) {
	g := geom.NewGrid(5, 5)
	net := newTestNet(t, 5)
	m := NewMigrator(net)
	stats, err := m.Execute(geom.FromTransform(g, Rot().Step(0, g)))
	if err != nil {
		t.Fatal(err)
	}
	wantStats := MigrationStats{Cycles: 2200, Phases: 4, Transfers: 24, StateFlitsMoved: 12288}
	if stats != wantStats {
		t.Errorf("stats = %+v, want %+v", stats, wantStats)
	}

	act := net.Act
	got := map[string]string{
		"BufWrites": digest(act.BufWrites),
		"BufReads":  digest(act.BufReads),
		"Xbar":      digest(act.Xbar),
		"Arb":       digest(act.Arb),
		"Link":      digest(act.Link),
		"PEOps":     digest(act.PEOps),
		"ConvWords": digest(act.ConvWords),
	}
	want := map[string]string{
		"BufWrites": "c217325ae46a84ed",
		"BufReads":  "c217325ae46a84ed",
		"Xbar":      "c217325ae46a84ed",
		"Arb":       "c217325ae46a84ed",
		"Link":      "637e5136d24770ed",
		"PEOps":     "37027190f725c8c5",
		"ConvWords": "ca4a3b28e97777c5",
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
}
