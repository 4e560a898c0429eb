// Package noalloc exercises the allocation analyzer: functions tagged
// //hotnoc:noalloc must stay free of allocating constructs, including
// through calls into other module functions.
package noalloc

import (
	"errors"
	"fmt"
	"math"
)

type solver struct {
	scratch []float64
	sum     float64
}

// solveInto is the good citizen: indexed writes into caller buffers,
// pure math, no allocation anywhere.
//
//hotnoc:noalloc
func (s *solver) solveInto(dst, src []float64) {
	for i, v := range src {
		dst[i] = math.Sqrt(v) + s.sum
	}
}

// grow allocates every which way.
//
//hotnoc:noalloc
func (s *solver) grow(v float64) {
	s.scratch = append(s.scratch, v) // want `append may grow its backing array`
	buf := make([]float64, 8)        // want `make allocates`
	_ = buf
	m := map[string]int{} // want `map literal`
	_ = m
	lit := []float64{v} // want `slice literal`
	_ = lit
}

// box demonstrates fmt boxing and closures.
//
//hotnoc:noalloc
func (s *solver) box(v float64) {
	fmt.Println(v)                   // want `fmt\.Println allocates` `boxes into an interface`
	f := func() float64 { return v } // want `function literal`
	_ = f
}

// helper allocates; annotated callers inherit the finding.
func helper(n int) []float64 {
	return make([]float64, n)
}

// callsHelper must be caught transitively at the call site.
//
//hotnoc:noalloc
func callsHelper(n int) []float64 {
	return helper(n) // want `calls noalloc\.helper, which may allocate: make allocates`
}

// guarded shows the two blessed cold paths: panic arguments and error
// construction inside a return statement do not count.
//
//hotnoc:noalloc
func guarded(n int) error {
	if n < 0 {
		panic(fmt.Sprintf("negative size %d", n))
	}
	if n > 1<<20 {
		return fmt.Errorf("size %d too large", n)
	}
	if n == 13 {
		return errors.New("unlucky")
	}
	return nil
}

// amortized grows scratch rarely and documents it: the suppression is
// the audit trail, and it also cleans the summary for callers.
//
//hotnoc:noalloc
func (s *solver) amortized(n int) {
	if cap(s.scratch) < n {
		s.scratch = make([]float64, n) //hotnoc:allow noalloc amortized scratch growth, measured 0 allocs/op steady-state
	}
	for i := range s.scratch[:n] {
		s.scratch[i] = 0
	}
}

// callsAmortized stays clean because amortized's only allocation is
// suppressed at its site.
//
//hotnoc:noalloc
func (s *solver) callsAmortized(n int) {
	s.amortized(n)
}

// box is a generic type; calls of its instantiated methods resolve to the
// generic declaration's summary.
type box[T any] struct{ v []T }

//hotnoc:noalloc
func (b *box[T]) first() T { return b.v[0] }

func (b *box[T]) grow(v T) { b.v = append(b.v, v) }

//hotnoc:noalloc
func useBox(b *box[int]) int {
	b.grow(1) // want `calls \(\*noalloc\.box\[T\]\)\.grow, which may allocate: append may grow its backing array`
	return b.first()
}
