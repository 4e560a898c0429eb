package main

import (
	"testing"

	"hotnoc/internal/clitest"
)

// TestGolden pins the scale-8 report. Regenerate with go test -update.
func TestGolden(t *testing.T) { clitest.Golden(t, "testdata/scale8.txt", "-scale", "8") }
