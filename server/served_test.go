package server

import (
	"bytes"
	"context"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/server/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/fig1_outcomes_scale8.txt instead of comparing with it")

// fig1Grid is the paper's Figure 1 grid: five configurations times five
// schemes at the default migration period.
func fig1Grid() []hotnoc.SweepPoint {
	return hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), nil)
}

// TestOutcomeWireGolden pins the bytes a scale-8 Figure 1 job streams:
// the data payload of each of its 25 outcome events, one a line, must
// equal testdata/fig1_outcomes_scale8.txt. Regenerate it with -update.
// Like the command goldens it is pinned on amd64 only, where no
// multiply-add is fused.
func TestOutcomeWireGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("wire golden is pinned on amd64, not %s", runtime.GOARCH)
	}
	const golden = "testdata/fig1_outcomes_scale8.txt"
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	id, err := c.StartSweep(context.Background(), fig1Grid())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n := 0
	for _, frame := range strings.Split(string(readEvents(t, url, id)()), "\n\n") {
		if data, ok := strings.CutPrefix(frame, "event: "+wire.EventOutcome+"\ndata: "); ok {
			got.WriteString(data + "\n")
			n++
		}
	}
	if n != 25 {
		t.Fatalf("stream carried %d outcomes, want 25", n)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("stream carried %d outcome lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("outcome %d payload differs from %s:\ngot:  %s\nwant: %s", i, golden, gotLines[i], wantLines[i])
		}
	}
}

// TestServedSweepAllocs guards the served path's allocation budget: a
// warm scale-8 Figure 1 job submitted through the client SDK, run by the
// daemon, streamed over SSE and decoded back into outcomes. The count
// covers both ends, server and client, of all 25 points.
func TestServedSweepAllocs(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := fig1Grid()
	sweep := func() {
		n := 0
		for _, err := range c.Sweep(ctx, pts) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != len(pts) {
			t.Fatalf("sweep yielded %d outcomes, want %d", n, len(pts))
		}
	}
	sweep()
	runtime.GC() // the first GC's mark workers allocate; start them outside the count
	allocs := testing.AllocsPerRun(5, sweep)
	// About 955 allocations here, 1 230 under the race detector. A
	// strings.Replacer built per name for every scheme lookup, a
	// Specs() copy per configuration lookup, a string per SSE line read,
	// an allocation per encoded frame and result slices grown one
	// element at a time made it 3 240 (3 590 under the race detector).
	bound := 1200
	if raceEnabled {
		bound = 1550
	}
	if allocs > float64(bound) {
		t.Fatalf("warm served 25-point sweep made %.0f allocations, want at most %d", allocs, bound)
	}
}
