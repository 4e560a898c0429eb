// Package core implements the paper's contribution: hotspot prevention by
// periodic runtime reconfiguration of a NoC. Every migration period the
// logical workload plane is moved by one of the algebraic transformations
// of Table 1 (rotation, mirroring, translation); the migration itself is
// executed as congestion-free phased state transfers over the network, the
// chip's I/O interface re-targets external addresses through a cumulative
// transform so the reconfiguration is transparent to the outside world, and
// a runtime manager co-simulates workload, migration and the thermal RC
// model to evaluate peak-temperature reduction, throughput penalty and
// migration energy.
package core

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"hotnoc/internal/geom"
)

// Scheme is one of the paper's migration policies. A scheme supplies the
// transform applied at the k-th migration; most schemes repeat a single
// transform, while X-Y mirroring alternates the mirror axis so that the
// plane visits four distinct placements (the same orbit richness as
// rotation) at half the per-migration state movement.
type Scheme struct {
	// Name matches the paper's Figure 1 series labels.
	Name string
	// StepFn returns the transform for migration k (0-based) on grid g.
	StepFn func(k int, g geom.Grid) geom.Transform
}

// Step returns the k-th migration transform for grid g.
func (s Scheme) Step(k int, g geom.Grid) geom.Transform { return s.StepFn(k, g) }

// OrbitLen returns the number of migrations after which the cumulative
// transform returns to the identity — the length of the thermal cycle the
// chip settles into under this scheme.
func (s Scheme) OrbitLen(g geom.Grid) int {
	id := geom.Identity()
	cum := geom.Identity()
	for k := 0; k < 4*g.N(); k++ {
		cum = cum.Compose(s.Step(k, g))
		if cum.EqualOn(g, id) {
			return k + 1
		}
	}
	panic(fmt.Sprintf("core: scheme %q does not cycle within %d migrations on %dx%d",
		s.Name, 4*g.N(), g.W, g.H))
}

// Placements returns the cumulative placements the workload visits,
// starting from (and excluding a return to) the initial one: entry k is
// the cumulative transform after k migrations, k = 0..OrbitLen-1.
func (s Scheme) Placements(g geom.Grid) []geom.Transform {
	n := s.OrbitLen(g)
	out := make([]geom.Transform, n)
	cum := geom.Identity()
	out[0] = cum
	for k := 1; k < n; k++ {
		cum = cum.Compose(s.Step(k-1, g))
		out[k] = cum
	}
	return out
}

// The paper's five schemes.

// Rot rotates the plane 90° every period.
func Rot() Scheme {
	return Scheme{
		Name:   "Rot",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.Rotation(g.W) },
	}
}

// XMirrorScheme reflects across the vertical centre line every period
// (an involution: the plane alternates between two placements).
func XMirrorScheme() Scheme {
	return Scheme{
		Name:   "X Mirror",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.XMirror(g.W) },
	}
}

// XYMirrorScheme alternates X and Y mirroring on successive periods, so
// the cumulative transform walks I -> Mx -> MxMy -> My -> I and the
// workload visits four placements.
func XYMirrorScheme() Scheme {
	return Scheme{
		Name: "X-Y Mirror",
		StepFn: func(k int, g geom.Grid) geom.Transform {
			if k%2 == 0 {
				return geom.XMirror(g.W)
			}
			return geom.YMirror(g.H)
		},
	}
}

// RightShift translates the plane one column east (with wraparound) every
// period.
func RightShift() Scheme {
	return Scheme{
		Name:   "Right Shift",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.XTranslate(g.W, 1) },
	}
}

// XYShift translates the plane diagonally by (1,1) every period — the
// paper's best scheme on average.
func XYShift() Scheme {
	return Scheme{
		Name:   "X-Y Shift",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.XYTranslate(g.W, g.H, 1, 1) },
	}
}

// AllSchemes returns the paper's five schemes in Figure 1 order.
func AllSchemes() []Scheme {
	return []Scheme{Rot(), XMirrorScheme(), XYMirrorScheme(), RightShift(), XYShift()}
}

// schemeKeys maps each scheme's name, lower-cased with its spaces,
// hyphens and underscores dropped, to its constructor, in Figure 1 order.
var schemeKeys = [...]struct {
	key  string
	make func() Scheme
}{
	{"rot", Rot},
	{"xmirror", XMirrorScheme},
	{"xymirror", XYMirrorScheme},
	{"rightshift", RightShift},
	{"xyshift", XYShift},
}

// SchemeByName resolves a scheme from a CLI-style name (case-insensitive,
// ignoring spaces, hyphens and underscores): "rot", "xmirror",
// "xymirror", "rightshift", "xyshift". It allocates nothing on success.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range schemeKeys {
		if foldedEqual(name, s.key) {
			return s.make(), nil
		}
	}
	return Scheme{}, fmt.Errorf("core: unknown migration scheme %q", name)
}

// foldedEqual reports whether name, with every ' ', '-' and '_' removed
// and then lower-cased by Unicode rules, equals key, which is lower-case
// ASCII. Lower-casing is unicode.ToLower per rune, as strings.ToLower
// does, so the two runes whose lower case is ASCII match too: U+0130
// (İ) reads as 'i' and U+212A (Kelvin sign) as 'k'. A byte that is not
// valid UTF-8 decodes as U+FFFD and matches nothing.
func foldedEqual(name, key string) bool {
	j := 0
	for i := 0; i < len(name); {
		r, size := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(name[i:])
		}
		i += size
		switch r {
		case ' ', '-', '_':
			continue
		}
		r = unicode.ToLower(r)
		if r >= utf8.RuneSelf || j == len(key) || byte(r) != key[j] {
			return false
		}
		j++
	}
	return j == len(key)
}
