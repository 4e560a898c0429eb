package fleet

import (
	"testing"

	"hotnoc"
)

func labStats(scale int, decodes, cacheMisses uint64) []hotnoc.LabStats {
	return []hotnoc.LabStats{{Scale: scale, Decodes: decodes, CacheMisses: cacheMisses}}
}

// TestLedgerMonotonicAcrossRestart: a worker whose counters regress —
// the restart signature — keeps its previous incarnation's final
// snapshot banked, so the fleet totals only ever grow.
func TestLedgerMonotonicAcrossRestart(t *testing.T) {
	l := newStatsLedger()
	l.observe("http://w1", labStats(8, 100, 4))
	l.observe("http://w2", labStats(8, 50, 2))

	if tot := l.labTotals()[8]; tot.decodes != 150 || tot.cacheMisses != 6 {
		t.Fatalf("totals before restart = %+v, want 150 decodes / 6 misses", tot)
	}

	// w1 restarts: its counters start over from a smaller value. The 100
	// decodes of the dead incarnation must stay counted.
	l.observe("http://w1", labStats(8, 10, 1))
	if tot := l.labTotals()[8]; tot.decodes != 160 || tot.cacheMisses != 7 {
		t.Fatalf("totals after restart = %+v, want 160 decodes / 7 misses", tot)
	}

	// Progress within the new incarnation accumulates normally.
	l.observe("http://w1", labStats(8, 30, 1))
	if tot := l.labTotals()[8]; tot.decodes != 180 {
		t.Fatalf("totals after post-restart progress = %+v, want 180 decodes", tot)
	}

	// An unchanged snapshot (idempotent poll) adds nothing.
	l.observe("http://w1", labStats(8, 30, 1))
	if tot := l.labTotals()[8]; tot.decodes != 180 {
		t.Fatalf("totals after repeated snapshot = %+v, want 180 decodes", tot)
	}

	// w1 restarts again and is polled before its new Lab exists: the
	// missing scale banks the 30 decodes, so a new incarnation that
	// catches up to the same count is not mistaken for the old one.
	l.observe("http://w1", nil)
	if tot := l.labTotals()[8]; tot.decodes != 180 {
		t.Fatalf("totals while w1 reports no Lab = %+v, want 180 decodes", tot)
	}
	l.observe("http://w1", labStats(8, 30, 1))
	if tot := l.labTotals()[8]; tot.decodes != 210 {
		t.Fatalf("totals after w1's third incarnation = %+v, want 210 decodes", tot)
	}
}

// TestLedgerPerWorker: the per-worker view is sorted by URL, sums a
// worker's scales, and spans incarnations.
func TestLedgerPerWorker(t *testing.T) {
	l := newStatsLedger()
	l.observe("http://wb", labStats(8, 5, 0))
	l.observe("http://wa", []hotnoc.LabStats{
		{Scale: 8, Decodes: 10},
		{Scale: 16, Decodes: 3},
	})
	l.observe("http://wa", labStats(8, 2, 0)) // restart: scale 8 regressed, scale 16 gone

	urls, counters := l.perWorker()
	if len(urls) != 2 || urls[0] != "http://wa" || urls[1] != "http://wb" {
		t.Fatalf("perWorker urls = %v, want sorted [wa wb]", urls)
	}
	// wa: banked 10 (scale 8, old incarnation) + 2 live + 3 (scale 16).
	if counters[0].decodes != 15 {
		t.Fatalf("wa decodes = %d, want 15", counters[0].decodes)
	}
	if counters[1].decodes != 5 {
		t.Fatalf("wb decodes = %d, want 5", counters[1].decodes)
	}
}
