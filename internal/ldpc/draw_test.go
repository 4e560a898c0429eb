package ldpc

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// drawRegular is NewRegular with the drawing's worker count and chunk
// size set.
func drawRegular(n, m, w int, seed int64, workers, chunkVars int) (*Code, error) {
	d, err := Draw(n, m, w, seed)
	if err != nil {
		return nil, err
	}
	d.workers, d.chunkVars = workers, chunkVars
	for {
		c, err := d.Next()
		if err != nil {
			return nil, err
		}
		if c.CheckRank() == nil {
			return c, nil
		}
	}
}

// rejectedVars lists the variables of a shape's first candidate whose
// permutation draws a rejected value.
func rejectedVars(n, m, w int, seed int64) []int {
	d, err := Draw(n, m, w, seed)
	if err != nil {
		panic(err)
	}
	var vars []int
	for v := range n {
		if vals := d.s.scan(nil, 1, d.draws, d.low); len(vals) > m {
			vars = append(vars, v)
		}
	}
	return vars
}

// sameCode fails unless got, with its encoder derived, equals want, the
// oracle's code with its encoder built eagerly.
func sameCode(t *testing.T, what string, got, want *Code) {
	t.Helper()
	got.encoderOnce.Do(got.deriveEncoder)
	want.encoderOnce.Do(func() {})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs from the sort-based construction", what)
	}
}

// TestParallelDrawMatchesRef: the draw pipeline makes the sort-based
// construction's code on 1, 2, 4 and 8 workers and at chunk sizes down
// to one variable. Shape (600, 300, 3, 40) rejects a draw of variable
// 230, inside a chunk before the last at every chunk size here, so where
// every later chunk starts depends on the scanner counting it, whichever
// worker fills that chunk. Shape (12, 6, 3, 3) retries, so the second
// candidate's chunks continue the stream where the first's ended.
func TestParallelDrawMatchesRef(t *testing.T) {
	shapes := []struct {
		n, m, w int
		seed    int64
		chunks  []int
	}{
		{600, 300, 3, 40, []int{1, 3, 64, 599}},
		{12, 6, 3, 3, []int{1, 5, 12}},
		{320, 160, 3, 1001, []int{1, 17}},
	}
	for _, s := range shapes {
		want, attempts, err := refNewRegular(s.n, s.m, s.w, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.seed == 3 && attempts < 2 {
			t.Fatalf("shape (%d, %d, %d, %d) took %d attempt(s); pick one that retries", s.n, s.m, s.w, s.seed, attempts)
		}
		rej := rejectedVars(s.n, s.m, s.w, s.seed)
		for _, chunk := range s.chunks {
			if s.seed == 40 && (len(rej) == 0 || rej[0]/chunk == (s.n-1)/chunk) {
				t.Fatalf("shape (%d, %d, %d, %d) at %d variables a chunk rejects at %v, none before the last chunk",
					s.n, s.m, s.w, s.seed, chunk, rej)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := drawRegular(s.n, s.m, s.w, s.seed, workers, chunk)
				if err != nil {
					t.Fatal(err)
				}
				sameCode(t, fmt.Sprintf("shape (%d, %d, %d, %d) on %d workers, %d variables a chunk",
					s.n, s.m, s.w, s.seed, workers, chunk), got, want)
			}
		}
	}
}

// TestNewRegularMatchesRefGOMAXPROCS: NewRegular sizes its pipeline from
// GOMAXPROCS and returns the same code at 1, 2 and 8. Paper
// configuration C's code rejects draws of three variables.
func TestNewRegularMatchesRefGOMAXPROCS(t *testing.T) {
	const n, m, w, seed = 4000, 2000, 3, 1003
	if rej := rejectedVars(n, m, w, seed); len(rej) == 0 {
		t.Fatal("shape rejects no draw; pick one that does")
	}
	want, _, err := refNewRegular(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := NewRegular(n, m, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameCode(t, fmt.Sprintf("GOMAXPROCS %d", procs), got, want)
	}
}

// TestDrawLeavesNoGoroutine: every goroutine a draw starts has exited
// once NewRegular returns, on every worker count.
func TestDrawLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		if _, err := drawRegular(12, 6, 3, 3, workers, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A goroutine that has called wg.Done still has to return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the draws, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
