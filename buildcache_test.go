package hotnoc

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

// bcKey is the key every build-cache test resolves.
var bcKey = buildKey{Config: "A", Scale: bcScale}

// coldBuild runs a real cold build of bcKey.
func coldBuild() (*chipcfg.Built, error) { return BuildConfig(bcKey.Config, bcKey.Scale) }

// countingBuild returns a compute serving the shared real build while
// counting invocations.
func countingBuild(t *testing.T, builds *int) func() (*chipcfg.Built, error) {
	t.Helper()
	real := bcBuilt(t)
	return func() (*chipcfg.Built, error) {
		*builds++
		return real, nil
	}
}

// neverBuild is the compute of a Get that must be served from the cache.
func neverBuild(t *testing.T) func() (*chipcfg.Built, error) {
	return func() (*chipcfg.Built, error) {
		t.Error("cache hit expected, but the build ran")
		return nil, errors.New("unexpected build")
	}
}

// TestBuildCacheRoundTrip: a build persisted by one cache is
// reconstituted by a fresh cache over the same directory with zero
// annealing and identical calibration products and placement.
func TestBuildCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := newBuildCache(dir, 0)
	cold, hit, err := c1.Get(bcKey, coldBuild)
	if err != nil || hit {
		t.Fatalf("cold Get = (hit %v, err %v), want a cold build", hit, err)
	}

	anneals := place.AnnealCount()
	c2 := newBuildCache(dir, 0)
	warm, hit, err := c2.Get(bcKey, neverBuild(t))
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
	c, build := newBuildCache("", 0), countingBuild(t, &builds) // memory-only
	if _, hit, err := c.Get(bcKey, build); hit || err != nil {
		t.Fatalf("cold Get = (hit %v, err %v)", hit, err)
	}
	if _, hit, err := c.Get(bcKey, build); !hit || err != nil {
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
	c := newBuildCache("", 0)
	build := func() (*chipcfg.Built, error) {
		calls++
		if calls == 1 {
			return nil, transient
		}
		return real, nil
	}
	if _, _, err := c.Get(bcKey, build); !errors.Is(err, transient) {
		t.Fatalf("first Get returned %v, want the build error", err)
	}
	built, hit, err := c.Get(bcKey, build)
	if err != nil || hit || built == nil {
		t.Fatalf("retry after failure = (hit %v, err %v), want a fresh build", hit, err)
	}
	if _, hit, err := c.Get(bcKey, build); !hit || err != nil {
		t.Fatalf("post-retry Get = (hit %v, err %v), want memory hit", hit, err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (fail, then retry)", calls)
	}
}

// TestRunnerBuildRetryAccounting: a failed build releases the Lab's
// build-start claim so the retry brackets again, and the retry's cold
// build is classified as a miss — a fail-then-retry sequence must never
// surface as build_hits with zero misses, because that is exactly the
// signal the warm-start acceptance checks trust.
func TestRunnerBuildRetryAccounting(t *testing.T) {
	real := bcBuilt(t)
	r := NewLab(WithScale(bcScale), WithWorkers(1))
	fail := true
	r.build = func(config string, scale int) (*chipcfg.Built, error) {
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
	if st := r.Stats(); st.BuildHits != 0 || st.BuildMisses != 1 {
		t.Fatalf("fail-then-retry counted %d hits / %d misses, want 0 / 1", st.BuildHits, st.BuildMisses)
	}
	var stages []SweepStage
	for _, ev := range events {
		stages = append(stages, ev.Stage)
		if ev.Stage == StageBuildDone && ev.CacheHit {
			t.Fatal("retry's cold build reported CacheHit")
		}
	}
	want := []SweepStage{StageBuildStart, StageBuildStart, StageBuildDone}
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
	if st := r.Stats(); st.BuildHits != 0 || st.BuildMisses != 1 {
		t.Fatalf("memory hit re-counted: %d hits / %d misses, want 0 / 1", st.BuildHits, st.BuildMisses)
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
	c := newBuildCache(dir, 0)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(bcKey), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Get(bcKey, countingBuild(t, &builds)); err != nil || hit || builds != 1 {
		t.Fatalf("corrupt entry: (hit %v, builds %d, err %v), want silent rebuild", hit, builds, err)
	}
	// The overwrite must leave a valid snapshot behind.
	if _, hit, err := newBuildCache(dir, 0).Get(bcKey, neverBuild(t)); err != nil || !hit {
		t.Fatalf("after overwrite: (hit %v, err %v), want disk hit", hit, err)
	}
}

// writeEntry gob-encodes env into path, standing in for a file another
// process (or an earlier version) wrote.
func writeEntry(t *testing.T, path string, env any) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(env); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCacheIgnoresStaleEntries: snapshots with the wrong format
// version, key, grid or a payload failing spec revalidation are treated
// as absent — the sweep silently falls back to a fresh build.
func TestBuildCacheIgnoresStaleEntries(t *testing.T) {
	type env = diskEntry[buildKey, chipcfg.BuildData]
	good := *bcBuilt(t).Data()
	otherGrid := good
	otherGrid.GridN = 5
	badPayload := good
	badPayload.EnergyScale = 0
	cases := []struct {
		name string
		env  env
	}{
		{"version", env{Version: buildFormatVersion + 1, Key: bcKey, Data: good}},
		{"key", env{Version: buildFormatVersion, Key: buildKey{Config: "B", Scale: bcScale}, Data: good}},
		{"gridn", env{Version: buildFormatVersion, Key: bcKey, Data: otherGrid}},
		{"payload", env{Version: buildFormatVersion, Key: bcKey, Data: badPayload}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			builds := 0
			c := newBuildCache(t.TempDir(), 0)
			writeEntry(t, c.path(bcKey), tc.env)
			if _, hit, err := c.Get(bcKey, countingBuild(t, &builds)); err != nil || hit || builds != 1 {
				t.Fatalf("stale %s entry: (hit %v, builds %d, err %v), want rebuild",
					tc.name, hit, builds, err)
			}
		})
	}
}

// TestBuildCacheServesLegacyEnvelope: a snapshot in the envelope layout
// written before the build and characterization caches shared one
// envelope (with its GridN field) still restores, so upgrading
// invalidates no cache directory.
func TestBuildCacheServesLegacyEnvelope(t *testing.T) {
	type legacyBuild struct {
		Version int
		Key     buildKey
		GridN   int
		Data    chipcfg.BuildData
	}
	c := newBuildCache(t.TempDir(), 0)
	writeEntry(t, c.path(bcKey), legacyBuild{
		Version: buildFormatVersion, Key: bcKey, GridN: 4, Data: *bcBuilt(t).Data(),
	})
	if _, hit, err := c.Get(bcKey, neverBuild(t)); err != nil || !hit {
		t.Fatalf("legacy snapshot: (hit %v, err %v), want disk hit", hit, err)
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
	c, build := newBuildCache(filepath.Join(notADir, "sub"), 0), countingBuild(t, &builds)
	if _, hit, err := c.Get(bcKey, build); err != nil || hit || builds != 1 {
		t.Fatalf("unwritable dir: (hit %v, builds %d, err %v), want fresh build", hit, builds, err)
	}
	// And the in-memory entry still serves.
	if _, hit, err := c.Get(bcKey, build); err != nil || !hit {
		t.Fatalf("memory entry after failed persist: (hit %v, err %v)", hit, err)
	}
}

// TestBuildCacheLRUEvictionIndependentOfCharFiles: build snapshots are
// bounded per kind — writing builds past the limit evicts the oldest
// build files and leaves characterization files alone.
func TestBuildCacheLRUEvictionIndependentOfCharFiles(t *testing.T) {
	dir := t.TempDir()

	// Two characterization files that must survive build eviction.
	cc := newCharCache(dir, 0)
	for _, k := range []charKey{
		{Config: "A", Scheme: "Rot", Scale: 8},
		{Config: "B", Scheme: "Rot", Scale: 8},
	} {
		if _, _, err := cc.Get(k, func() (*core.Characterization, error) { return fakeCharFor(k), nil }); err != nil {
			t.Fatal(err)
		}
	}

	real := bcBuilt(t)
	bc := newBuildCache(dir, 2)
	for _, cfg := range []string{"A", "B", "C"} {
		key := buildKey{Config: cfg, Scale: bcScale}
		if _, _, err := bc.Get(key, func() (*chipcfg.Built, error) { return real, nil }); err != nil {
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
