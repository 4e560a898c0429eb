//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops some of what
// it is given back, so pooled encoder state is allocated anew.
const raceEnabled = true
