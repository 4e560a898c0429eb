package sim

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/geom"
)

// fakeCharFor is fakeChar sized to key's configuration and naming key's
// scheme: a payload the cache restores for key.
func fakeCharFor(key CharKey) *core.Characterization {
	spec, err := chipcfg.ByName(key.Config)
	if err != nil {
		panic(err)
	}
	ch := fakeChar(spec.GridN * spec.GridN)
	ch.SchemeName = key.Scheme
	return ch
}

// fakeChar builds a small, fully populated characterization payload.
func fakeChar(n int) *core.Characterization {
	blockJ := func(seed float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = seed + float64(i)*0.125
		}
		return out
	}
	return &core.Characterization{
		SchemeName:     "Rot",
		BaselineCycles: 1000,
		BaselineBlockJ: blockJ(1.5),
		Legs: []core.LegActivity{
			{
				Step:         geom.Rotation(3),
				DecodeCycles: 990,
				DecodeBlockJ: blockJ(2.25),
				DecodeJ:      7.5,
				Migration:    core.MigrationStats{Cycles: 120, Phases: 3, Transfers: 8, StateFlitsMoved: 64},
				MigBlockJ:    blockJ(0.5),
				MigJ:         1.25,
			},
		},
	}
}

// TestCharCacheRoundTrip: an entry written to disk is restored bit for bit
// by a fresh cache over the same directory, without invoking compute.
func TestCharCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := CharKey{Config: "A", Scheme: "Rot", Scale: 8}
	want := fakeCharFor(key)

	c1 := newCharCache(dir, 0)
	got, hit, err := c1.Get(key, func() (*core.Characterization, error) { return want, nil })
	if err != nil || hit {
		t.Fatalf("first Get = (hit %v, err %v), want computed", hit, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first Get returned different data")
	}

	c2 := newCharCache(dir, 0)
	got2, hit2, err := c2.Get(key, func() (*core.Characterization, error) {
		t.Fatal("fresh cache recomputed a persisted entry")
		return nil, nil
	})
	if err != nil || !hit2 {
		t.Fatalf("restored Get = (hit %v, err %v), want disk hit", hit2, err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("disk round trip altered the characterization")
	}
}

// TestCharCacheMemoryHit: the second in-process Get for a key is a hit and
// does not recompute.
func TestCharCacheMemoryHit(t *testing.T) {
	c := newCharCache("", 0) // memory-only
	key := CharKey{Config: "B", Scheme: "X-Y Shift", Scale: 1}
	computes := 0
	get := func() (*core.Characterization, bool, error) {
		return c.Get(key, func() (*core.Characterization, error) {
			computes++
			return fakeChar(4), nil
		})
	}
	if _, hit, err := get(); hit || err != nil {
		t.Fatalf("cold Get = (hit %v, err %v)", hit, err)
	}
	if _, hit, err := get(); !hit || err != nil {
		t.Fatalf("warm Get = (hit %v, err %v)", hit, err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
}

// TestCharCacheIgnoresCorruptEntry: garbage bytes on disk mean "recompute
// and overwrite", never an error.
func TestCharCacheIgnoresCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	key := CharKey{Config: "C", Scheme: "Rot", Scale: 8}
	c := newCharCache(dir, 0)
	if err := os.WriteFile(c.path(key), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fakeCharFor(key)
	got, hit, err := c.Get(key, func() (*core.Characterization, error) { return want, nil })
	if err != nil {
		t.Fatalf("corrupt entry became fatal: %v", err)
	}
	if hit {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("corrupt entry corrupted the recomputed result")
	}
	// The overwrite must leave a valid entry behind.
	if _, hit, err := newCharCache(dir, 0).Get(key, func() (*core.Characterization, error) {
		t.Fatal("overwritten entry not readable")
		return nil, nil
	}); err != nil || !hit {
		t.Fatalf("after overwrite: (hit %v, err %v)", hit, err)
	}
}

// TestCharCacheRetriesAfterError: a failed computation must not poison
// its key — the error reaches the failing request, the entry is
// forgotten, and the next request retries (and can then be served from
// memory like any other). The regression this pins: sync.Once-based
// entries cached the first error forever, so one transient failure
// failed every later job touching the key for the life of the service.
func TestCharCacheRetriesAfterError(t *testing.T) {
	c := newCharCache("", 0)
	key := CharKey{Config: "A", Scheme: "Rot", Scale: 8}
	const n = 4
	transient := errors.New("transient characterize failure")
	calls := 0
	get := func() (*core.Characterization, bool, error) {
		return c.Get(key, func() (*core.Characterization, error) {
			calls++
			if calls == 1 {
				return nil, transient
			}
			return fakeChar(n), nil
		})
	}
	if _, _, err := get(); !errors.Is(err, transient) {
		t.Fatalf("first Get returned %v, want the compute error", err)
	}
	data, hit, err := get()
	if err != nil || hit || data == nil {
		t.Fatalf("retry after failure = (hit %v, err %v), want a fresh compute", hit, err)
	}
	if _, hit, err := get(); !hit || err != nil {
		t.Fatalf("post-retry Get = (hit %v, err %v), want memory hit", hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (fail, then retry)", calls)
	}
}

// TestCharCacheFailureSharedWithWaiters: requests blocked on a
// resolution that fails all receive that error — none of them re-runs
// the compute or resolves an orphaned entry — while the key itself is
// cleared, so the next request after the failure retries fresh.
//
// Whether a waiter actually blocked on the in-flight resolution before
// it failed is a scheduling race this test cannot force, so an attempt
// where any waiter arrived late (and correctly retried on a fresh
// entry) is retried rather than failed. The pre-fix bug — waiters
// re-resolving the orphaned entry — fails every attempt, so it still
// cannot slip through.
func TestCharCacheFailureSharedWithWaiters(t *testing.T) {
	key := CharKey{Config: "A", Scheme: "Rot", Scale: 8}
	const n, waiters, attempts = 4, 3, 5
	transient := errors.New("transient characterize failure")

	attempt := func() (sharedErrs int, waiterComputes int32, resolverErr error) {
		c := newCharCache("", 0)
		started := make(chan struct{})
		release := make(chan struct{})
		resErr := make(chan error, 1)
		go func() {
			_, _, err := c.Get(key, func() (*core.Characterization, error) {
				close(started)
				<-release
				return nil, transient
			})
			resErr <- err
		}()
		<-started

		// Waiters pile onto the in-flight resolution. Their computes
		// succeed, so where a compute's result lands tells the healthy
		// case from the bug below.
		var computes atomic.Int32
		errs := make(chan error, waiters)
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := c.Get(key, func() (*core.Characterization, error) {
					computes.Add(1)
					return fakeChar(n), nil
				})
				errs <- err
			}()
		}
		time.Sleep(25 * time.Millisecond)
		close(release)
		wg.Wait()
		for i := 0; i < waiters; i++ {
			if err := <-errs; errors.Is(err, transient) {
				sharedErrs++
			} else if err != nil {
				t.Fatalf("waiter got unexpected error %v", err)
			}
		}
		// Whatever the waiters did, a subsequent request must see a live
		// entry or compute anew — never fail. If a waiter computed, its
		// result must be visible here (a memory hit): a compute whose
		// result vanished resolved the orphaned entry — the bug.
		probed := false
		data, hit, err := c.Get(key, func() (*core.Characterization, error) {
			probed = true
			return fakeChar(n), nil
		})
		if err != nil || data == nil {
			t.Fatalf("request after failure errored: %v", err)
		}
		if computes.Load() > 0 && probed {
			t.Fatalf("a waiter's compute result vanished (hit %v): it resolved an orphaned entry", hit)
		}
		if computes.Load() == 0 && !probed {
			t.Fatal("no compute ran yet the probe was served: stale entry survived the failure")
		}
		return sharedErrs, computes.Load(), <-resErr
	}

	for i := 0; i < attempts; i++ {
		shared, waiterComputes, resolverErr := attempt()
		if !errors.Is(resolverErr, transient) {
			t.Fatalf("resolver got %v, want its own compute error", resolverErr)
		}
		if shared == waiters && waiterComputes == 0 {
			return // every waiter blocked in time and got the shared error
		}
		// Some waiter legitimately arrived after the failure and retried
		// on a fresh entry; run the scenario again.
	}
	t.Skip("scheduler never blocked all waiters on the in-flight resolution; sharing path untestable here")
}

// TestCharCacheDebouncedTouch: memory hits refresh the on-disk LRU
// timestamp at most once per touchInterval — a hot key served thousands
// of times per sweep must not issue a Chtimes syscall per request.
func TestCharCacheDebouncedTouch(t *testing.T) {
	defer func(prev time.Duration) { touchInterval = prev }(touchInterval)
	touchInterval = time.Hour

	dir := t.TempDir()
	key := CharKey{Config: "A", Scheme: "Rot", Scale: 8}
	c := newCharCache(dir, 0)
	if _, _, err := c.Get(key, func() (*core.Characterization, error) { return fakeCharFor(key), nil }); err != nil {
		t.Fatal(err)
	}
	warm := func() {
		if _, hit, err := c.Get(key, func() (*core.Characterization, error) {
			t.Fatal("memory entry recomputed")
			return nil, nil
		}); !hit || err != nil {
			t.Fatalf("memory hit = (hit %v, err %v)", hit, err)
		}
	}
	warm() // first memory hit claims the interval's one touch

	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(c.path(key), old, old); err != nil {
		t.Fatal(err)
	}
	warm() // debounced: within the interval, no Chtimes
	fi, err := os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if fi.ModTime().After(old.Add(time.Minute)) {
		t.Fatalf("debounced memory hit still touched the file (mtime %v)", fi.ModTime())
	}

	touchInterval = 0 // interval elapsed: the next hit may touch again
	warm()
	fi, err = os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().After(old.Add(time.Minute)) {
		t.Fatal("memory hit past the interval never refreshed the LRU timestamp")
	}
}

// TestCharCacheLRUEviction: with a file limit configured, writing past the
// bound evicts the least-recently-used entries — and serving an entry from
// disk refreshes its recency, protecting it from the next eviction pass.
func TestCharCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	const limit = 2
	k1 := CharKey{Config: "A", Scheme: "Rot", Scale: 8}
	k2 := CharKey{Config: "B", Scheme: "Rot", Scale: 8}
	k3 := CharKey{Config: "C", Scheme: "Rot", Scale: 8}

	seed := newCharCache(dir, limit)
	for _, k := range []CharKey{k1, k2} {
		if _, _, err := seed.Get(k, func() (*core.Characterization, error) { return fakeCharFor(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Backdate both entries so recency is unambiguous regardless of
	// filesystem timestamp granularity: k1 older than k2.
	for i, k := range []CharKey{k1, k2} {
		old := time.Now().Add(-time.Hour * time.Duration(2-i))
		if err := os.Chtimes(seed.path(k), old, old); err != nil {
			t.Fatal(err)
		}
	}

	// Serving k1 from disk (fresh cache, so it is a disk load, not a
	// memory hit) must refresh its mtime past k2's.
	warm := newCharCache(dir, limit)
	if _, hit, err := warm.Get(k1, func() (*core.Characterization, error) {
		t.Fatal("persisted entry recomputed")
		return nil, nil
	}); err != nil || !hit {
		t.Fatalf("disk load = (hit %v, err %v)", hit, err)
	}

	// Writing k3 exceeds the limit; the LRU entry is now k2, not k1.
	if _, _, err := warm.Get(k3, func() (*core.Characterization, error) { return fakeCharFor(k3), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(warm.path(k2)); !os.IsNotExist(err) {
		t.Fatalf("LRU entry k2 survived eviction (err %v)", err)
	}
	for _, k := range []CharKey{k1, k3} {
		if _, err := os.Stat(warm.path(k)); err != nil {
			t.Fatalf("recently-used entry %v evicted: %v", k, err)
		}
	}

	// An evicted key recomputes; the survivors still serve from disk.
	final := newCharCache(dir, limit)
	computed := false
	if _, hit, err := final.Get(k2, func() (*core.Characterization, error) {
		computed = true
		return fakeCharFor(k2), nil
	}); err != nil || hit || !computed {
		t.Fatalf("evicted entry: (hit %v, computed %v, err %v), want recompute", hit, computed, err)
	}
}

// TestCharCacheUnlimitedKeepsAll: the default limit of zero never evicts.
func TestCharCacheUnlimitedKeepsAll(t *testing.T) {
	dir := t.TempDir()
	c := newCharCache(dir, 0)
	keys := []CharKey{
		{Config: "A", Scheme: "Rot", Scale: 8},
		{Config: "B", Scheme: "Rot", Scale: 8},
		{Config: "C", Scheme: "Rot", Scale: 8},
	}
	for _, k := range keys {
		if _, _, err := c.Get(k, func() (*core.Characterization, error) { return fakeCharFor(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, err := os.Stat(c.path(k)); err != nil {
			t.Fatalf("unbounded cache evicted %v: %v", k, err)
		}
	}
}

// TestCharCacheIgnoresStaleEntries: entries with the wrong format
// version or key, or a payload for another grid or scheme or failing
// validation, are treated as absent.
func TestCharCacheIgnoresStaleEntries(t *testing.T) {
	type env = diskEntry[CharKey, core.Characterization]
	key := CharKey{Config: "D", Scheme: "Rot", Scale: 8}
	good := *fakeCharFor(key)
	otherScheme := *fakeCharFor(CharKey{Config: "D", Scheme: "X-Y Shift", Scale: 8})
	cases := []struct {
		name string
		env  env
	}{
		{"version", env{Version: charFormatVersion + 1, Key: key, Data: good}},
		{"key", env{Version: charFormatVersion, Key: CharKey{Config: "E", Scheme: "Rot", Scale: 8}, Data: good}},
		{"gridn", env{Version: charFormatVersion, Key: key, Data: *fakeChar(len(good.BaselineBlockJ) + 1)}},
		{"scheme", env{Version: charFormatVersion, Key: key, Data: otherScheme}},
		{"payload", env{Version: charFormatVersion, Key: key, Data: core.Characterization{SchemeName: "Rot"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCharCache(t.TempDir(), 0)
			writeEntry(t, c.path(key), tc.env)
			computed := false
			_, hit, err := c.Get(key, func() (*core.Characterization, error) {
				computed = true
				return fakeCharFor(key), nil
			})
			if err != nil || hit || !computed {
				t.Fatalf("stale %s entry: (hit %v, computed %v, err %v), want recompute",
					tc.name, hit, computed, err)
			}
		})
	}
}

// TestCharCacheServesLegacyEnvelope: an entry in the envelope layout
// written before the build and characterization caches shared one
// envelope (with its GridN field) still restores, so upgrading
// invalidates no cache directory.
func TestCharCacheServesLegacyEnvelope(t *testing.T) {
	type legacyChar struct {
		Version int
		Key     CharKey
		GridN   int
		Data    core.Characterization
	}
	key := CharKey{Config: "C", Scheme: "Rot", Scale: 8}
	want := fakeCharFor(key)
	c := newCharCache(t.TempDir(), 0)
	writeEntry(t, c.path(key), legacyChar{
		Version: charFormatVersion, Key: key, GridN: len(want.BaselineBlockJ), Data: *want,
	})
	got, hit, err := c.Get(key, func() (*core.Characterization, error) {
		t.Error("legacy entry recomputed")
		return nil, errors.New("unexpected compute")
	})
	if err != nil || !hit {
		t.Fatalf("legacy entry: (hit %v, err %v), want disk hit", hit, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("legacy entry restored different data")
	}
}
