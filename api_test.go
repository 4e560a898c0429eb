package hotnoc

import (
	"context"
	"math"
	"strings"
	"testing"
)

// Scaled-down configurations keep the full pipeline under test without
// paper-scale runtimes; the full-scale numbers are produced by the
// benchmarks and cmd tools.
const testScale = 8

func TestConfigsRoster(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 5 {
		t.Fatalf("%d configs, want 5", len(cfgs))
	}
	if _, err := ConfigByName("C"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigByName("Z"); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestSchemesRoster(t *testing.T) {
	ss := Schemes()
	if len(ss) != 5 {
		t.Fatalf("%d schemes, want 5", len(ss))
	}
	want := []string{"Rot", "X Mirror", "X-Y Mirror", "Right Shift", "X-Y Shift"}
	for i, s := range ss {
		if s.Name != want[i] {
			t.Errorf("scheme %d is %q, want %q", i, s.Name, want[i])
		}
	}
	if _, err := SchemeByName("xyshift"); err != nil {
		t.Error(err)
	}
}

// TestFigure1Scaled reproduces the figure's structure and headline shape on
// reduced configurations: every scheme on A and E, X-Y shift positive on
// both, base temperatures calibrated to the paper.
func TestFigure1Scaled(t *testing.T) {
	res, err := NewLab(WithScale(testScale)).Figure1(context.Background(), []string{"A", "E"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	wantBase := map[string]float64{"A": 85.44, "E": 75.98}
	for _, row := range res.Rows {
		if math.Abs(row.BasePeakC-wantBase[row.Config]) > 0.05 {
			t.Errorf("%s base %.2f, want %.2f", row.Config, row.BasePeakC, wantBase[row.Config])
		}
		if len(row.Cells) != 5 {
			t.Fatalf("%s has %d cells", row.Config, len(row.Cells))
		}
		var xyshift Figure1Cell
		for _, c := range row.Cells {
			if c.Scheme == "X-Y Shift" {
				xyshift = c
			}
		}
		if xyshift.ReductionC <= 0 {
			t.Errorf("%s: X-Y shift reduction %.2f, want positive", row.Config, xyshift.ReductionC)
		}
	}
	if res.MeanReductionC["X-Y Shift"] <= res.MeanReductionC["X Mirror"] {
		t.Errorf("X-Y shift mean %.2f not above X mirror %.2f",
			res.MeanReductionC["X-Y Shift"], res.MeanReductionC["X Mirror"])
	}
	table := res.Table()
	for _, frag := range []string{"A (85.4", "E (75.9", "X-Y Shift", "mean"} {
		if !strings.Contains(table, frag) {
			t.Errorf("table missing %q:\n%s", frag, table)
		}
	}
}

// TestPeriodSweepScaled: the penalty falls roughly in proportion to the
// period while the peak rises only marginally.
func TestPeriodSweepScaled(t *testing.T) {
	pts, err := NewLab(WithScale(testScale)).PeriodSweep(context.Background(), "A", XYShift(), []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	if !(pts[0].ThroughputPenalty > pts[1].ThroughputPenalty &&
		pts[1].ThroughputPenalty > pts[2].ThroughputPenalty) {
		t.Fatalf("penalty not decreasing: %v", pts)
	}
	if pts[0].PeakRiseC != 0 {
		t.Fatalf("first point rise %.3f, want 0", pts[0].PeakRiseC)
	}
	// At this reduced scale migration overhead is proportionally larger
	// than at paper scale, and amortizing it over longer periods can
	// slightly outweigh the slower thermal averaging; allow a small
	// negative rise. The paper-scale behaviour (monotone, < 0.1 °C rise)
	// is checked by the full-scale benchmarks and EXPERIMENTS.md.
	if pts[2].PeakRiseC < -0.35 {
		t.Fatalf("8-block peak below 1-block by %.3f", -pts[2].PeakRiseC)
	}
	if pts[1].PeriodSec <= pts[0].PeriodSec {
		t.Fatal("period did not grow with block count")
	}
}

// TestPeriodSweepUnsortedBlocks: the period study does not depend on the
// order blocks are given in; every rise is measured against the shortest
// period, wherever it sits in the list.
func TestPeriodSweepUnsortedBlocks(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithScale(testScale))
	sorted, err := lab.PeriodSweep(ctx, "A", XYShift(), []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := lab.PeriodSweep(ctx, "A", XYShift(), []int{8, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	byBlocks := map[int]PeriodPoint{}
	for _, p := range sorted {
		byBlocks[p.Blocks] = p
	}
	for _, p := range unsorted {
		if want := byBlocks[p.Blocks]; p != want {
			t.Errorf("%d blocks: unsorted sweep gives %+v, sorted gives %+v", p.Blocks, p, want)
		}
	}
}

// TestMigrationEnergyScaled: every scheme's migration energy raises the
// average chip temperature, and rotation has the longest migrations.
func TestMigrationEnergyScaled(t *testing.T) {
	studies, err := NewLab(WithScale(testScale)).MigrationEnergy(context.Background(), "E")
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 5 {
		t.Fatalf("%d studies, want 5", len(studies))
	}
	var rotCycles, maxOther int64
	for _, st := range studies {
		if st.DeltaMeanC < 0 {
			t.Errorf("%s: migration energy cooled the chip by %.3f °C", st.Scheme, -st.DeltaMeanC)
		}
		if st.MigrationEnergyJ <= 0 {
			t.Errorf("%s: no migration energy", st.Scheme)
		}
		if st.Scheme == "Rot" {
			rotCycles = st.MigrationCycles
		} else if st.MigrationCycles > maxOther {
			maxOther = st.MigrationCycles
		}
	}
	if rotCycles < maxOther {
		t.Errorf("rotation migration (%d cycles) not the longest (%d)", rotCycles, maxOther)
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1(5)
	for _, frag := range []string{"N-1-Y", "N-1-X", "X + Offset", "Rot", "Right Shift"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table1 missing %q:\n%s", frag, out)
		}
	}
}

// TestBuildConfigAPI: façade construction works and is calibrated.
func TestBuildConfigAPI(t *testing.T) {
	b, err := BuildConfig("D", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.StaticPeakC-72.80) > 0.05 {
		t.Fatalf("D calibrated to %.2f, want 72.80", b.StaticPeakC)
	}
	if _, err := BuildConfig("nope", testScale); err == nil {
		t.Fatal("unknown config accepted")
	}
}
