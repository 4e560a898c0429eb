package appmap

import (
	"math/rand"
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

func mustCode(t testing.TB, n, m, w int, seed int64) *ldpc.Code {
	t.Helper()
	c, err := ldpc.NewRegular(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newEngine(t testing.TB, code *ldpc.Code, part *Partition, gridN int) *Engine {
	t.Helper()
	net, err := noc.New(geom.NewGrid(gridN, gridN), noc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(code, part, net)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newRefEngine(t testing.TB, code *ldpc.Code, part *Partition, gridN int) *RefEngine {
	t.Helper()
	net, err := noc.New(geom.NewGrid(gridN, gridN), noc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRefEngine(code, part, net)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomLLRs(code *ldpc.Code, snr float64, seed int64) ([]uint8, []ldpc.LLR) {
	ch, err := ldpc.NewChannel(snr, code.Rate(), seed)
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(seed + 1))
	info := make([]uint8, code.K())
	for i := range info {
		info[i] = uint8(r.Intn(2))
	}
	cw, err := code.Encode(info)
	if err != nil {
		panic(err)
	}
	return cw, ch.Transmit(cw)
}

func TestPartitionValidate(t *testing.T) {
	code := mustCode(t, 64, 32, 3, 1)
	good := Contiguous(code, 16)
	if err := good.Validate(code); err != nil {
		t.Fatalf("contiguous partition invalid: %v", err)
	}
	bad := Contiguous(code, 16)
	bad.VarPE[0] = 16
	if err := bad.Validate(code); err == nil {
		t.Fatal("out-of-range PE accepted")
	}
	short := &Partition{NPE: 4, VarPE: make([]int, 10), CheckPE: make([]int, code.M)}
	if err := short.Validate(code); err == nil {
		t.Fatal("wrong-size partition accepted")
	}
}

func TestPartitionShapes(t *testing.T) {
	code := mustCode(t, 160, 80, 3, 2)
	for name, p := range map[string]*Partition{
		"contiguous":  Contiguous(code, 16),
		"interleaved": Interleaved(code, 16),
	} {
		if err := p.Validate(code); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
	sk, err := Skewed(code, 16, 3, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Validate(code); err != nil {
		t.Fatalf("skewed invalid: %v", err)
	}
	ops := OpsPerPE(code, sk)
	var heavy, light int64
	for pe, o := range ops {
		if pe < 3 {
			heavy += o
		} else {
			light += o
		}
	}
	heavyAvg := float64(heavy) / 3
	lightAvg := float64(light) / 13
	if heavyAvg < 2*lightAvg {
		t.Fatalf("skewed partition not skewed: heavy avg %g vs light avg %g", heavyAvg, lightAvg)
	}
}

func TestSkewedRejectsBadParams(t *testing.T) {
	code := mustCode(t, 64, 32, 3, 3)
	if _, err := Skewed(code, 16, 0, 0.5, 1); err == nil {
		t.Fatal("heavyPEs=0 accepted")
	}
	if _, err := Skewed(code, 16, 16, 0.5, 1); err == nil {
		t.Fatal("heavyPEs=NPE accepted")
	}
	if _, err := Skewed(code, 16, 2, 0, 1); err == nil {
		t.Fatal("heavyShare=0 accepted")
	}
}

// TestOpsAndTrafficConservation: total ops equal 2x edges (each edge is
// computed once per phase) and the traffic matrix is symmetric with zero
// diagonal.
func TestOpsAndTrafficConservation(t *testing.T) {
	code := mustCode(t, 120, 60, 3, 4)
	for _, p := range []*Partition{Contiguous(code, 25), Interleaved(code, 25)} {
		var total int64
		for _, o := range OpsPerPE(code, p) {
			total += o
		}
		if total != 2*int64(code.Edges()) {
			t.Fatalf("ops total %d, want %d", total, 2*code.Edges())
		}
		m := TrafficMatrix(code, p)
		for i := range m {
			if m[i][i] != 0 {
				t.Fatalf("self traffic at PE %d", i)
			}
			for j := range m {
				if m[i][j] != m[j][i] {
					t.Fatalf("traffic matrix asymmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

// TestDistributedMatchesReference is the keystone integration test: the
// on-NoC distributed decoder must produce bit-identical decisions to the
// reference flooding decoder, for several partitions and codes. The
// decoder is the frozen value-carrying RefEngine, whose traffic
// TestTrafficMatchesValueOracle pins the Engine to.
func TestDistributedMatchesReference(t *testing.T) {
	code := mustCode(t, 160, 80, 3, 6)
	ref := ldpc.NewDecoder(code)
	ref.MaxIter = 8
	parts := map[string]*Partition{
		"contiguous":  Contiguous(code, 16),
		"interleaved": Interleaved(code, 16),
	}
	if sk, err := Skewed(code, 16, 3, 0.5, 7); err == nil {
		parts["skewed"] = sk
	}
	for name, part := range parts {
		eng := newRefEngine(t, code, part, 4)
		eng.MaxIter = 8
		for blk := int64(0); blk < 3; blk++ {
			_, llr := randomLLRs(code, 2.0, 100+blk)
			wantBits, _, _ := ref.Decode(llr)
			got, _, err := eng.Decode(llr)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, blk, err)
			}
			for i := range wantBits {
				if got[i] != wantBits[i] {
					t.Fatalf("%s block %d: decision %d differs from reference", name, blk, i)
				}
			}
		}
	}
}

// TestPlacementInvariance: migrating the logical plane must not change the
// decoded bits — only timing and traffic location. This is the paper's
// correctness requirement for transparent reconfiguration, checked on the
// value-carrying RefEngine.
func TestPlacementInvariance(t *testing.T) {
	code := mustCode(t, 160, 80, 3, 8)
	part := Contiguous(code, 16)
	_, llr := randomLLRs(code, 2.0, 9)

	eng := newRefEngine(t, code, part, 4)
	eng.MaxIter = 6
	base, _, err := eng.Decode(llr)
	if err != nil {
		t.Fatal(err)
	}

	g := geom.NewGrid(4, 4)
	for _, tr := range []geom.Transform{
		geom.Rotation(4), geom.XYMirror(4, 4), geom.XYTranslate(4, 4, 1, 1),
	} {
		perm := geom.FromTransform(g, tr)
		place := make([]int, 16)
		for i := range place {
			place[i] = perm.Dst(i)
		}
		eng2 := newRefEngine(t, code, part, 4)
		eng2.MaxIter = 6
		if err := eng2.SetPlacement(place); err != nil {
			t.Fatal(err)
		}
		got, _, err := eng2.Decode(llr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%s placement changed decisions at bit %d", tr.Name, i)
			}
		}
	}
}

// TestDeterministicBlockTime: for a fixed placement, block decode duration
// is cycle-identical across blocks and runs — the property the paper's
// real-time migration scheduling depends on.
func TestDeterministicBlockTime(t *testing.T) {
	code := mustCode(t, 160, 80, 3, 10)
	part := Interleaved(code, 16)
	eng := newEngine(t, code, part, 4)
	eng.MaxIter = 4
	var want int64
	for blk := int64(0); blk < 3; blk++ {
		_, llr := randomLLRs(code, 2.0, 200+blk)
		cycles, err := eng.Decode(llr)
		if err != nil {
			t.Fatal(err)
		}
		if blk == 0 {
			want = cycles
			continue
		}
		if cycles != want {
			t.Fatalf("block %d took %d cycles, block 0 took %d", blk, cycles, want)
		}
	}
}

// TestPlacementChangesActivityLocation: after migration, the physical
// blocks hosting the heavy PEs must change accordingly.
func TestPlacementChangesActivityLocation(t *testing.T) {
	code := mustCode(t, 160, 80, 3, 11)
	sk, err := Skewed(code, 16, 1, 0.7, 12)
	if err != nil {
		t.Fatal(err)
	}
	_, llr := randomLLRs(code, 2.0, 13)

	eng := newEngine(t, code, sk, 4)
	eng.MaxIter = 4
	if _, err := eng.Decode(llr); err != nil {
		t.Fatal(err)
	}
	opsIdentity := append([]uint64(nil), eng.Net.Act.PEOps...)

	// Move logical PE 0 (the heavy one) from block 0 to block 15.
	place := make([]int, 16)
	for i := range place {
		place[i] = i
	}
	place[0], place[15] = 15, 0
	eng2 := newEngine(t, code, sk, 4)
	eng2.MaxIter = 4
	if err := eng2.SetPlacement(place); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Decode(llr); err != nil {
		t.Fatal(err)
	}
	opsMoved := eng2.Net.Act.PEOps

	if opsMoved[15] != opsIdentity[0] || opsMoved[0] != opsIdentity[15] {
		t.Fatalf("PE ops did not follow the migration: identity block0=%d block15=%d, moved block0=%d block15=%d",
			opsIdentity[0], opsIdentity[15], opsMoved[0], opsMoved[15])
	}
	if opsIdentity[0] <= opsIdentity[15] {
		t.Fatal("test premise broken: logical PE 0 should be the heavy one")
	}
}

// TestSetPlacementValidation covers the bijection checks.
func TestSetPlacementValidation(t *testing.T) {
	code := mustCode(t, 64, 32, 3, 14)
	eng := newEngine(t, code, Contiguous(code, 16), 4)
	if err := eng.SetPlacement(make([]int, 15)); err == nil {
		t.Fatal("short placement accepted")
	}
	dup := make([]int, 16)
	if err := eng.SetPlacement(dup); err == nil {
		t.Fatal("non-bijective placement accepted")
	}
}

// TestEngineRejectsMismatchedMesh: partition PE count must match the grid.
func TestEngineRejectsMismatchedMesh(t *testing.T) {
	code := mustCode(t, 64, 32, 3, 15)
	net, err := noc.New(geom.NewGrid(4, 4), noc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(code, Contiguous(code, 9), net); err == nil {
		t.Fatal("PE-count mismatch accepted")
	}
}

// TestDecodeRejectsWrongBlockLength: the block argument carries no values,
// but it must still be one LLR per code bit.
func TestDecodeRejectsWrongBlockLength(t *testing.T) {
	code := mustCode(t, 64, 32, 3, 17)
	eng := newEngine(t, code, Contiguous(code, 16), 4)
	for _, n := range []int{0, code.N - 1, code.N + 1} {
		if _, err := eng.Decode(make([]ldpc.LLR, n)); err == nil {
			t.Fatalf("a %d-LLR block accepted for N=%d", n, code.N)
		}
	}
	if eng.Decodes != 0 || eng.Net.Cycle != 0 {
		t.Fatalf("a rejected block ran: %d decodes, cycle %d", eng.Decodes, eng.Net.Cycle)
	}
}

// TestDecodeMemoForgetsFailures: a decode that fails is not cached. Its
// key is released, so a fork decoding at the same key simulates, and
// fails, again instead of replaying a failed entry.
func TestDecodeMemoForgetsFailures(t *testing.T) {
	code := mustCode(t, 64, 32, 3, 17)
	block := make([]ldpc.LLR, code.N)
	cfg := noc.Config{InjectCap: 1} // every packet is at least two flits
	net, err := noc.New(geom.NewGrid(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(code, Contiguous(code, 16), net)
	if err != nil {
		t.Fatal(err)
	}
	forkNet, err := noc.New(geom.NewGrid(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := eng.Fork(forkNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{eng, fork} {
		if _, err := e.Decode(block); err == nil {
			t.Fatal("a decode overflowing its injection queues succeeded")
		}
		if n := len(e.memo.entries); n != 0 || e.Decodes != 0 {
			t.Fatalf("a failed decode left %d memo entries and counted %d decodes", n, e.Decodes)
		}
	}
}

// TestScheduleMatchesOracle: the static schedule's per-phase edge
// computations and messages per (source, destination) PE pair equal what
// the value-carrying RefEngine computes and sends in each phase.
func TestScheduleMatchesOracle(t *testing.T) {
	code := mustCode(t, 120, 60, 3, 16)
	for name, part := range map[string]*Partition{
		"contiguous":  Contiguous(code, 16),
		"interleaved": Interleaved(code, 16),
	} {
		eng := newEngine(t, code, part, 4)
		eng.prepareDecode()
		ref := newRefEngine(t, code, part, 4)
		ref.MaxIter = 1
		_, llr := randomLLRs(code, 2.0, 18)
		if _, _, err := ref.Decode(llr); err != nil {
			t.Fatal(err)
		}
		var wantLoad int64
		for p, n := range eng.sched.load {
			if n != int64(len(ref.varsOwned[p])) {
				t.Fatalf("%s: PE %d loads %d variables, oracle %d", name, p, n, len(ref.varsOwned[p]))
			}
			wantLoad += n
		}
		if wantLoad != int64(code.N) {
			t.Fatalf("%s: schedule loads %d variables, code has %d", name, wantLoad, code.N)
		}
		npe := part.NPE
		for phase := range 2 {
			for p := 0; p < npe; p++ {
				if got, want := eng.sched.ops[phase][p], int64(ref.ops[phase][p]); got != want {
					t.Fatalf("%s phase %d: PE %d computes %d messages, oracle %d", name, phase, p, got, want)
				}
				for d := 0; d < npe; d++ {
					got := eng.sched.cnt[p][d]
					if phase == 1 {
						got = eng.sched.cnt[d][p]
					}
					if want := int64(ref.sent[phase][p*npe+d]); got != want {
						t.Fatalf("%s phase %d: PE %d sends %d messages to PE %d, oracle %d",
							name, phase, p, got, d, want)
					}
				}
			}
		}
	}
}
