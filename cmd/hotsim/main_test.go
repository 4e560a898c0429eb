package main

import (
	"strings"
	"testing"

	"hotnoc/internal/clitest"
)

// TestReactiveGolden pins the scale-8 reactive report the service smoke
// also compares against a daemon. Regenerate with go test -update.
func TestReactiveGolden(t *testing.T) {
	clitest.Golden(t, "testdata/reactive_scale8.txt",
		strings.Fields("-reactive -trigger 84 -sim-blocks 300 -warmup-blocks 150 -config A -scale 8")...)
}
