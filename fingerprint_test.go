package hotnoc

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// studyHash is an FNV-1a fingerprint over a study's fields: floats by
// their IEEE-754 bits, integers as uint64, strings as their bytes.
type studyHash struct{ h hash.Hash64 }

func newStudyHash() studyHash { return studyHash{fnv.New64a()} }

func (s studyHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.h.Write(b[:])
}

func (s studyHash) f(vs ...float64) {
	for _, v := range vs {
		s.u64(math.Float64bits(v))
	}
}

func (s studyHash) str(v string) {
	s.u64(uint64(len(v)))
	s.h.Write([]byte(v))
}

func (s studyHash) sum() string { return fmt.Sprintf("%016x", s.h.Sum64()) }

// TestStudyFingerprint pins the paper's three derived studies bit for bit
// at the test scale: every field of Figure 1 over A-E, the X-Y Shift
// period sweep on A and the migration-energy ablation on E. A change
// anywhere below the façade that moves a reproduced number fails here,
// inside go test. The values are amd64-only: other architectures may fuse
// multiply-adds and round differently.
func TestStudyFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64, not %s", runtime.GOARCH)
	}
	ctx := context.Background()
	lab := NewLab(WithScale(testScale))

	fig, err := lab.Figure1(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	fh := newStudyHash()
	for _, row := range fig.Rows {
		fh.str(row.Config)
		fh.f(row.BasePeakC)
		for _, c := range row.Cells {
			fh.str(c.Scheme)
			fh.f(c.ReductionC, c.MigratedPeakC, c.ThroughputPenalty)
		}
	}
	for _, s := range Schemes() {
		fh.str(s.Name)
		fh.f(fig.MeanReductionC[s.Name])
	}

	period, err := lab.PeriodSweep(ctx, "A", XYShift(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ph := newStudyHash()
	for _, p := range period {
		ph.u64(uint64(p.Blocks))
		ph.f(p.PeriodSec, p.ThroughputPenalty, p.PeakC, p.PeakRiseC)
	}

	energy, err := lab.MigrationEnergy(ctx, "E")
	if err != nil {
		t.Fatal(err)
	}
	eh := newStudyHash()
	for _, st := range energy {
		eh.str(st.Scheme)
		eh.f(st.MeanWithC, st.MeanWithoutC, st.DeltaMeanC,
			st.ReductionWithC, st.ReductionWithoutC, st.MigrationEnergyJ)
		eh.u64(uint64(st.MigrationCycles))
	}

	got := map[string]string{
		"figure1":         fh.sum(),
		"periodsweep":     ph.sum(),
		"migrationenergy": eh.sum(),
	}
	want := map[string]string{
		"figure1":         "c44fe1322d6dd248",
		"periodsweep":     "c50775188e2ba328",
		"migrationenergy": "9abb94281afeecf7",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %s, want %s", k, got[k], w)
		}
	}
}

// TestReactiveFingerprint pins the reactive reference set bit for bit at
// the test scale: X-Y Shift and Rot under every trigger of {82, 83, 84,
// 85} °C on configuration A, each with the default horizon, warmup,
// sensor resolution and step. It hashes every field of each
// ReactiveResult, the whole BlockPeaks timeline included, so a change to
// the transient integrator that moves one temperature bit fails here
// inside go test. amd64-only, like TestStudyFingerprint.
func TestReactiveFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64, not %s", runtime.GOARCH)
	}
	var cfgs []ReactiveConfig
	for _, s := range []Scheme{XYShift(), Rot()} {
		for _, trig := range []float64{82, 83, 84, 85} {
			cfgs = append(cfgs, ReactiveConfig{Scheme: s, TriggerC: trig})
		}
	}
	res, err := NewLab(WithScale(testScale)).Reactive(context.Background(), "A", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	h := newStudyHash()
	for i, r := range res {
		h.str(cfgs[i].Scheme.Name)
		h.f(cfgs[i].TriggerC, r.PeakC, r.MeanC, r.ThroughputPenalty)
		h.u64(uint64(r.Migrations))
		h.u64(uint64(len(r.BlockPeaks)))
		h.f(r.BlockPeaks...)
	}
	if got, want := h.sum(), "f9c9aa97ee20978f"; got != want {
		t.Errorf("reactive = %s, want %s", got, want)
	}
}
