package sim

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/place"
)

// bcScale keeps real builds in these tests cheap: minimum code size and
// annealing effort, every code path still exercised.
const bcScale = 64

var (
	bcOnce sync.Once
	bcVal  *chipcfg.Built
	bcErr  error
)

// bcBuilt runs one real scaled build of configuration A, shared by every
// test that needs genuine build data.
func bcBuilt(t *testing.T) *chipcfg.Built {
	t.Helper()
	bcOnce.Do(func() {
		spec, err := chipcfg.ByName("A")
		if err != nil {
			bcErr = err
			return
		}
		bcVal, bcErr = spec.Scaled(bcScale).Build()
	})
	if bcErr != nil {
		t.Fatal(bcErr)
	}
	return bcVal
}

// countingCache returns a memory-or-disk cache whose cold builds serve the
// shared real build while counting invocations.
func countingCache(t *testing.T, dir string, builds *int) *BuildCache {
	t.Helper()
	real := bcBuilt(t)
	c := NewBuildCache(dir, 0)
	c.build = func(config string, scale int) (*chipcfg.Built, error) {
		*builds++
		return real, nil
	}
	return c
}

// TestBuildCacheRoundTrip: a build persisted by one cache is
// reconstituted by a fresh cache over the same directory with zero
// annealing and identical calibration products and placement.
func TestBuildCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := NewBuildCache(dir, 0)
	cold, hit, err := c1.Get("A", bcScale)
	if err != nil || hit {
		t.Fatalf("cold Get = (hit %v, err %v), want a cold build", hit, err)
	}

	anneals := place.AnnealCount()
	c2 := NewBuildCache(dir, 0)
	warm, hit, err := c2.Get("A", bcScale)
	if err != nil || !hit {
		t.Fatalf("restored Get = (hit %v, err %v), want disk hit", hit, err)
	}
	if got := place.AnnealCount() - anneals; got != 0 {
		t.Fatalf("warm restore ran %d annealing searches, want 0", got)
	}
	if warm.EnergyScale != cold.EnergyScale || warm.StaticPeakC != cold.StaticPeakC ||
		warm.BlockCycles != cold.BlockCycles {
		t.Fatal("restored calibration products differ from the cold build")
	}
	for i := range cold.System.InitialPlace {
		if warm.System.InitialPlace[i] != cold.System.InitialPlace[i] {
			t.Fatalf("restored placement differs at %d", i)
		}
	}
}

// TestBuildCacheMemoryHit: the second in-process Get for a key is a hit
// and does not rebuild.
func TestBuildCacheMemoryHit(t *testing.T) {
	builds := 0
	c := countingCache(t, "", &builds) // memory-only
	if _, hit, err := c.Get("A", bcScale); hit || err != nil {
		t.Fatalf("cold Get = (hit %v, err %v)", hit, err)
	}
	if _, hit, err := c.Get("A", bcScale); !hit || err != nil {
		t.Fatalf("warm Get = (hit %v, err %v)", hit, err)
	}
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}
}

// TestBuildCacheRetriesAfterError: one transient build failure must not
// poison the key — the regression twin of TestCharCacheRetriesAfterError.
func TestBuildCacheRetriesAfterError(t *testing.T) {
	real := bcBuilt(t)
	transient := errors.New("transient build failure")
	calls := 0
	c := NewBuildCache("", 0)
	c.build = func(config string, scale int) (*chipcfg.Built, error) {
		calls++
		if calls == 1 {
			return nil, transient
		}
		return real, nil
	}
	if _, _, err := c.Get("A", bcScale); !errors.Is(err, transient) {
		t.Fatalf("first Get returned %v, want the build error", err)
	}
	built, hit, err := c.Get("A", bcScale)
	if err != nil || hit || built == nil {
		t.Fatalf("retry after failure = (hit %v, err %v), want a fresh build", hit, err)
	}
	if _, hit, err := c.Get("A", bcScale); !hit || err != nil {
		t.Fatalf("post-retry Get = (hit %v, err %v), want memory hit", hit, err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (fail, then retry)", calls)
	}
}

// TestRunnerBuildRetryAccounting: a failed build releases the runner's
// build-start claim so the retry brackets again, and the retry's cold
// build is classified as a miss — a fail-then-retry sequence must never
// surface as build_hits with zero misses, because that is exactly the
// signal the warm-start acceptance checks trust.
func TestRunnerBuildRetryAccounting(t *testing.T) {
	real := bcBuilt(t)
	r := NewRunner(Options{Scale: bcScale, Workers: 1})
	fail := true
	r.builds.build = func(config string, scale int) (*chipcfg.Built, error) {
		if fail {
			fail = false
			return nil, errors.New("transient build failure")
		}
		return real, nil
	}
	var events []Event
	prog := func(ev Event) { events = append(events, ev) }

	if _, err := r.builtFor("A", prog); err == nil {
		t.Fatal("first build did not fail")
	}
	if _, err := r.builtFor("A", prog); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.BuildStats(); hits != 0 || misses != 1 {
		t.Fatalf("fail-then-retry counted %d hits / %d misses, want 0 / 1", hits, misses)
	}
	var stages []Stage
	for _, ev := range events {
		stages = append(stages, ev.Stage)
		if ev.Stage == StageBuildDone && ev.CacheHit {
			t.Fatal("retry's cold build reported CacheHit")
		}
	}
	want := []Stage{StageBuildStart, StageBuildStart, StageBuildDone}
	if len(stages) != len(want) {
		t.Fatalf("events %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("events %v, want %v", stages, want)
		}
	}

	// A further request is a plain memory hit and accounts nothing more.
	if _, err := r.builtFor("A", prog); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.BuildStats(); hits != 0 || misses != 1 {
		t.Fatalf("memory hit re-counted: %d hits / %d misses, want 0 / 1", hits, misses)
	}
	if len(events) != len(want) {
		t.Fatalf("memory hit emitted extra events: %v", events)
	}
}

// TestBuildCacheIgnoresCorruptEntry: garbage bytes on disk mean "rebuild
// and overwrite", never a failed sweep.
func TestBuildCacheIgnoresCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	builds := 0
	c := countingCache(t, dir, &builds)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(BuildKey{Config: "A", Scale: bcScale}), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Get("A", bcScale); err != nil || hit || builds != 1 {
		t.Fatalf("corrupt entry: (hit %v, builds %d, err %v), want silent rebuild", hit, builds, err)
	}
	// The overwrite must leave a valid snapshot behind.
	if _, hit, err := NewBuildCache(dir, 0).Get("A", bcScale); err != nil || !hit {
		t.Fatalf("after overwrite: (hit %v, err %v), want disk hit", hit, err)
	}
}

// TestBuildCacheIgnoresStaleEntries: snapshots with the wrong format
// version, key, grid or a payload failing spec revalidation are treated
// as absent — the sweep silently falls back to a fresh build.
func TestBuildCacheIgnoresStaleEntries(t *testing.T) {
	key := BuildKey{Config: "A", Scale: bcScale}
	good := *bcBuilt(t).Data()
	badPayload := good
	badPayload.EnergyScale = 0
	cases := []struct {
		name string
		env  diskBuild
	}{
		{"version", diskBuild{Version: buildFormatVersion + 1, Key: key, GridN: 4, Data: good}},
		{"key", diskBuild{Version: buildFormatVersion, Key: BuildKey{Config: "B", Scale: bcScale}, GridN: 4, Data: good}},
		{"gridn", diskBuild{Version: buildFormatVersion, Key: key, GridN: 5, Data: good}},
		{"payload", diskBuild{Version: buildFormatVersion, Key: key, GridN: 4, Data: badPayload}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			builds := 0
			c := countingCache(t, t.TempDir(), &builds)
			f, err := os.Create(c.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := gob.NewEncoder(f).Encode(tc.env); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if _, hit, err := c.Get("A", bcScale); err != nil || hit || builds != 1 {
				t.Fatalf("stale %s entry: (hit %v, builds %d, err %v), want rebuild",
					tc.name, hit, builds, err)
			}
		})
	}
}

// TestBuildCacheUnwritableDir: when the cache path cannot be written (or
// read) at all, Get still serves fresh builds — persistence is best
// effort, never a sweep failure.
func TestBuildCacheUnwritableDir(t *testing.T) {
	// A regular file where the directory should be defeats both MkdirAll
	// and Open regardless of process privileges (tests may run as root,
	// where permission bits alone stop nothing).
	base := t.TempDir()
	notADir := filepath.Join(base, "cache")
	if err := os.WriteFile(notADir, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}
	builds := 0
	c := countingCache(t, filepath.Join(notADir, "sub"), &builds)
	if _, hit, err := c.Get("A", bcScale); err != nil || hit || builds != 1 {
		t.Fatalf("unwritable dir: (hit %v, builds %d, err %v), want fresh build", hit, builds, err)
	}
	// And the in-memory entry still serves.
	if _, hit, err := c.Get("A", bcScale); err != nil || !hit {
		t.Fatalf("memory entry after failed persist: (hit %v, err %v)", hit, err)
	}
}

// TestBuildCacheLRUEvictionIndependentOfCharFiles: build snapshots are
// bounded per kind — writing builds past the limit evicts the oldest
// build files and leaves characterization files alone.
func TestBuildCacheLRUEvictionIndependentOfCharFiles(t *testing.T) {
	dir := t.TempDir()
	const n = 4

	// Two characterization files that must survive build eviction.
	cc := NewCharCache(dir, 0)
	for _, k := range []CharKey{
		{Config: "A", Scheme: "Rot", Scale: 8},
		{Config: "B", Scheme: "Rot", Scale: 8},
	} {
		if _, _, err := cc.Get(k, n, func() (*core.Characterization, error) { return fakeChar(n), nil }); err != nil {
			t.Fatal(err)
		}
	}

	real := bcBuilt(t)
	bc := NewBuildCache(dir, 2)
	bc.build = func(config string, scale int) (*chipcfg.Built, error) { return real, nil }
	for _, cfg := range []string{"A", "B", "C"} {
		if _, _, err := bc.Get(cfg, bcScale); err != nil {
			t.Fatal(err)
		}
	}
	buildFiles, err := filepath.Glob(filepath.Join(dir, "build_*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buildFiles) != 2 {
		t.Fatalf("%d build snapshots after eviction, want 2", len(buildFiles))
	}
	charFiles, err := filepath.Glob(filepath.Join(dir, "char_*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(charFiles) != 2 {
		t.Fatalf("build eviction removed characterization files (%d left, want 2)", len(charFiles))
	}
}
