package hotnoc

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
)

// cache shares one kind of expensive artifact across workers, sweeps
// and runs. In memory it is a per-key singleflight: concurrent requests
// for one key block on a single resolution while different keys proceed
// in parallel, and a failed compute is never cached, so the next request
// retries instead of replaying the failure for the cache's lifetime.
// With a directory configured, entries also persist as gob envelopes, so
// a fresh process pointed at the same directory restores them instead of
// recomputing — and because gob round-trips float64 bit-exactly, results
// from a warm restart are bitwise identical to a cold run. A missing,
// corrupt, stale or mismatched file means "compute it again" (and
// overwrite), never an error.
//
// A positive limit bounds the number of files of the cache's kind in the
// directory: serving an entry refreshes its modification time (memory
// hits at most once per touchInterval), and writing one past the bound
// evicts the least-recently-used files of that kind only. The in-memory
// map is not bounded — live entries are few next to the files a service
// accretes over months.
//
// The kinds differ only in values set at construction: the file prefix
// and name, the format version, persist (live value V to payload P) and
// restore (rebuild V from a payload and validate it against the key;
// false means recompute).
type cache[K comparable, V, P any] struct {
	disk    diskCache
	flight  singleflight[K, V]
	version int
	name    func(K) string
	persist func(V) P
	restore func(K, *P) (V, bool)
}

// diskEntry is the on-disk envelope of one entry. The key is stored
// alongside the payload so a renamed or copied file cannot serve another
// key's artifact.
type diskEntry[K, P any] struct {
	Version int
	Key     K
	Data    P
}

// Get returns the value for key, restoring it from disk or running
// compute on first use. The flag reports a cache hit: true when compute
// was skipped (entry already in memory or restored from disk), false when
// it ran — a caller that merely waited on another goroutine's in-flight
// compute is not a hit, because the sweep did pay for it. A compute error
// is returned to this caller and every goroutine blocked on the same key,
// but is not cached.
func (c *cache[K, V, P]) Get(key K, compute func() (V, error)) (V, bool, error) {
	if !c.disk.enabled() {
		return c.flight.do(key, nil, compute, nil)
	}
	path := c.path(key)
	return c.flight.do(key,
		func() (V, bool) { return c.load(key, path) },
		func() (V, error) {
			// Serialize with other processes sharing the directory via an
			// advisory per-key lock file, so two daemons
			// compute a key once. After acquiring (after any concurrent
			// holder finished), re-check the disk: the holder's file
			// usually makes the compute unnecessary. No lock (unwritable
			// directory, wait budget exhausted) degrades to computing
			// here, never to an error.
			if release := c.disk.waitLock(path); release != nil {
				defer release()
				if v, ok := c.load(key, path); ok {
					return v, nil
				}
			}
			v, err := compute()
			if err == nil {
				c.disk.save(path, diskEntry[K, P]{Version: c.version, Key: key, Data: c.persist(v)})
			}
			return v, err
		},
		func(last *atomic.Int64) {
			// Memory hits count as use for the on-disk LRU too: a
			// long-lived service serves hot entries from memory for
			// months after load touched the file.
			c.disk.touchDebounced(path, last)
		})
}

// inMemory reports whether key's value is resolved in memory, so Get
// would return it without loading or computing anything.
func (c *cache[K, V, P]) inMemory(key K) bool { return c.flight.resolved(key) }

// path maps a key to its file under the cache directory.
func (c *cache[K, V, P]) path(key K) string {
	return filepath.Join(c.disk.dir, c.disk.prefix+"_"+c.name(key)+".gob")
}

// load restores key's persisted entry. It fails on a missing or corrupt
// file, another format version or key, or a payload restore rejects.
func (c *cache[K, V, P]) load(key K, path string) (V, bool) {
	var e diskEntry[K, P]
	if c.disk.load(path, &e) && e.Version == c.version && e.Key == key {
		if v, ok := c.restore(key, &e.Data); ok {
			// Touch the file so LRU eviction sees a served entry as
			// recently used, not as old as its original write.
			c.disk.touch(path)
			return v, true
		}
	}
	var zero V
	return zero, false
}

// buildFormatVersion gates build files: bump it whenever assembly,
// placement or calibration changes in a way that invalidates persisted
// snapshots.
const buildFormatVersion = 1

// charFormatVersion gates characterization files: bump it whenever the
// simulation pipeline or the stored type changes in a way that
// invalidates stored characterizations. Version 2 stores the payload
// under a new gob type name.
const charFormatVersion = 2

// buildKey identifies one calibrated build: a (configuration, scale)
// pair. Placement annealing and energy calibration are pure functions of
// this key, which is what makes persisting their outcome sound.
type buildKey struct {
	Config string
	Scale  int
}

// charKey identifies one NoC characterization: a (configuration, scheme,
// scale) triple. Everything the NoC stage measures is a pure function of
// this key, which is what makes the cache sound.
type charKey struct {
	Config string
	Scheme string
	Scale  int
}

type (
	buildCache = cache[buildKey, *chipcfg.Built, chipcfg.BuildData]
	charCache  = cache[charKey, *core.Characterization, core.Characterization]
)

// newBuildCache caches calibrated builds. A file holds the build's
// expensive products — the annealed placement and the energy calibration
// — which chipcfg.FromData revalidates against the scaled spec and
// splices into a deterministic assembly: zero annealing, zero
// calibration.
func newBuildCache(dir string, limit int) *buildCache {
	return &buildCache{
		disk:    diskCache{dir: dir, limit: limit, prefix: "build"},
		version: buildFormatVersion,
		name: func(k buildKey) string {
			return fmt.Sprintf("%s_s%d_%s", slug(k.Config), k.Scale, nameHash(k.Config))
		},
		persist: func(b *chipcfg.Built) chipcfg.BuildData { return *b.Data() },
		restore: func(k buildKey, d *chipcfg.BuildData) (*chipcfg.Built, bool) {
			spec, err := chipcfg.ByName(k.Config)
			if err != nil {
				return nil, false
			}
			b, err := spec.Scaled(k.Scale).FromData(d)
			return b, err == nil
		},
	}
}

// newCharCache caches NoC characterizations. A restored payload must name
// the key's scheme and cover the configuration's block count.
func newCharCache(dir string, limit int) *charCache {
	return &charCache{
		disk:    diskCache{dir: dir, limit: limit, prefix: "char"},
		version: charFormatVersion,
		name: func(k charKey) string {
			return fmt.Sprintf("%s_%s_s%d_%s", slug(k.Config), slug(k.Scheme), k.Scale,
				nameHash(k.Config, k.Scheme))
		},
		persist: func(ch *core.Characterization) core.Characterization { return *ch },
		restore: func(k charKey, ch *core.Characterization) (*core.Characterization, bool) {
			spec, err := chipcfg.ByName(k.Config)
			ok := err == nil && ch.SchemeName == k.Scheme && ch.Validate(spec.GridN*spec.GridN) == nil
			return ch, ok
		},
	}
}
