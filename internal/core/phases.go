package core

import (
	"hotnoc/internal/geom"
)

// Transfer is one PE's state movement during a migration: the full
// configuration and state of the workload at Src is converted and sent to
// Dst (block indices, row-major).
type Transfer struct {
	Src, Dst int
}

// Phase is a set of transfers whose XY routes share no directed link, so
// they proceed concurrently without congesting one another. Executing a
// migration as a sequence of such phases gives the deterministic migration
// times the paper needs for real-time guarantees (§2.2).
type Phase []Transfer

// PlanPhases decomposes the permutation induced by a migration into
// congestion-free phases with a deterministic greedy algorithm: transfers
// are considered in ascending source-block order and each is placed into
// the earliest phase where its XY route conflicts with no already-placed
// route. Fixed points generate no transfer.
func PlanPhases(g geom.Grid, perm geom.Perm) []Phase {
	// used holds one bitset over the mesh's directed links per phase.
	words := (numLinkDirs*g.N() + 63) / 64
	var phases []Phase
	var used []uint64
	var route []link
	for src := 0; src < perm.Len(); src++ {
		dst := perm.Dst(src)
		if dst == src {
			continue
		}
		route = xyRouteLinks(g, g.Coord(src), g.Coord(dst), route[:0])
		p := 0
		for p < len(phases) && conflicts(used[p*words:(p+1)*words], route) {
			p++
		}
		if p == len(phases) {
			phases = append(phases, nil)
			used = append(used, make([]uint64, words)...)
		}
		phases[p] = append(phases[p], Transfer{Src: src, Dst: dst})
		set := used[p*words : (p+1)*words]
		for _, l := range route {
			set[l>>6] |= 1 << (l & 63)
		}
	}
	return phases
}

// link is a directed mesh link, numbered numLinkDirs*from + the
// direction it leaves block from in.
type link int

const numLinkDirs = 4

// xyRouteLinks appends the directed links of the XY route from src to
// dst to links and returns the result.
func xyRouteLinks(g geom.Grid, src, dst geom.Coord, links []link) []link {
	cur := src
	for cur.X != dst.X {
		dir, step := 0, 1
		if dst.X < cur.X {
			dir, step = 1, -1
		}
		links = append(links, link(numLinkDirs*g.Index(cur)+dir))
		cur.X += step
	}
	for cur.Y != dst.Y {
		dir, step := 2, 1
		if dst.Y < cur.Y {
			dir, step = 3, -1
		}
		links = append(links, link(numLinkDirs*g.Index(cur)+dir))
		cur.Y += step
	}
	return links
}

// conflicts reports whether any link of route is in the bitset used.
func conflicts(used []uint64, route []link) bool {
	for _, l := range route {
		if used[l>>6]&(1<<(l&63)) != 0 {
			return true
		}
	}
	return false
}

// PhaseCount is a convenience wrapper returning just the number of phases
// a scheme's k-th migration needs on grid g — the quantity behind the
// differing migration durations (and per-phase synchronization energy) of
// the schemes.
func PhaseCount(g geom.Grid, tr geom.Transform) int {
	return len(PlanPhases(g, geom.FromTransform(g, tr)))
}
