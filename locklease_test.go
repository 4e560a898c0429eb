package hotnoc

import (
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// pinLockTiming speeds the advisory-lock poll loop up for tests and
// restores the production cadence afterwards.
func pinLockTiming(t *testing.T, poll, stale, wait time.Duration) {
	t.Helper()
	prevPoll, prevStale, prevWait := lockPollEvery, lockStaleAfter, lockWaitMax
	lockPollEvery, lockStaleAfter, lockWaitMax = poll, stale, wait
	t.Cleanup(func() { lockPollEvery, lockStaleAfter, lockWaitMax = prevPoll, prevStale, prevWait })
}

// TestBuildLockDedupsAcrossCaches is the shared
// cache-dir scenario: two independent build caches (standing in for two
// daemon processes — each has its own in-memory singleflight, so only
// the advisory lock file can coordinate them) resolve the same cold key
// concurrently. The advisory lock must serialize them so exactly one
// anneal runs and the loser reconstitutes the winner's snapshot.
func TestBuildLockDedupsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	lockDedups(t, func() *buildCache { return newBuildCache(dir, 0) }, bcKey, bcBuilt(t))
}

// TestCharLockDedupsAcrossCaches: characterizations take the same
// advisory lock, so two daemons sharing a directory
// simulate each orbit once.
func TestCharLockDedupsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	key := charKey{Config: "A", Scheme: "Rot", Scale: 8}
	lockDedups(t, func() *charCache { return newCharCache(dir, 0) }, key, fakeCharFor(key))
}

// lockDedups resolves key on two caches from mk concurrently, the second
// starting while the first sits inside its compute, and asserts that
// exactly one compute ran, both Gets got a value and the lock file is
// gone afterwards.
func lockDedups[K comparable, V comparable, P any](t *testing.T, mk func() *cache[K, V, P], key K, val V) {
	t.Helper()
	pinLockTiming(t, 2*time.Millisecond, time.Hour, time.Minute)

	var computes atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	compute := func() (V, error) {
		computes.Add(1)
		entered <- struct{}{}
		<-gate
		return val, nil
	}
	a, b := mk(), mk()

	type res struct {
		val V
		err error
	}
	results := make(chan res, 2)
	get := func(c *cache[K, V, P]) {
		v, _, err := c.Get(key, compute)
		results <- res{v, err}
	}
	go get(a)
	// Wait for the first daemon to hold the lock and sit inside its
	// compute before the second one starts, so the contender path is the
	// one exercised.
	<-entered
	go get(b)

	// While the holder is mid-compute, the contender must wait on the
	// lock file rather than start a second compute.
	select {
	case <-entered:
		t.Fatal("second cache started a compute while the first held the lock")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)

	var zero V
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("Get: %v", r.err)
		}
		if r.val == zero {
			t.Fatal("Get returned no value")
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("expected exactly one cold compute across both caches, got %d", n)
	}
	// The winner's release must not leave the lock file behind.
	if _, err := os.Stat(a.path(key) + ".lock"); !os.IsNotExist(err) {
		t.Fatalf("lock file still present after both Gets: %v", err)
	}
}

// TestBuildLockBreaksStaleLock: a lock file left by a crashed holder
// must not wedge the key — a contender older than the staleness bound
// breaks it and builds.
func TestBuildLockBreaksStaleLock(t *testing.T) {
	pinLockTiming(t, 2*time.Millisecond, 50*time.Millisecond, time.Minute)
	dir := t.TempDir()
	var builds int
	c, build := newBuildCache(dir, 0), countingBuild(t, &builds)

	lock := c.path(bcKey) + ".lock"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lock, []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(bcKey, build)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get wedged behind a stale lock")
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
}

// TestBuildLockMemoryOnly: without a cache directory there is nothing
// to lock; the cold path must not touch the filesystem or stall.
func TestBuildLockMemoryOnly(t *testing.T) {
	var builds int
	if _, _, err := newBuildCache("", 0).Get(bcKey, countingBuild(t, &builds)); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
}
