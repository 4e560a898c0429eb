package sim

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"hotnoc/internal/core"
)

// charFormatVersion gates disk entries: bump it whenever the simulation
// pipeline or the stored type changes in a way that invalidates stored
// characterizations. Entries with any other version are treated as stale
// and recomputed. Version 2 stores the payload under a new gob type name.
const charFormatVersion = 2

// CharKey identifies one cross-run characterization: a (configuration,
// scheme, scale) triple. Everything the NoC stage measures is a pure
// function of this key, which is what makes the cache sound.
type CharKey struct {
	Config string
	Scheme string
	Scale  int
}

// diskChar is the on-disk envelope of one cache entry. The key is stored
// alongside the payload so a renamed or copied file cannot serve the
// wrong characterization, and GridN lets the payload be validated before
// use.
type diskChar struct {
	Version int
	Key     CharKey
	GridN   int
	Data    core.Characterization
}

// CharCache shares NoC characterizations across runs. In memory it is a
// per-key singleflight: concurrent requests for one key block on a single
// computation while different keys proceed in parallel. With a directory
// configured, entries additionally persist as gob files, so a fresh
// process pointed at the same directory skips the cycle-accurate NoC
// stage entirely — and because gob round-trips float64 bit-exactly,
// results from a warm restart are bitwise identical to a cold run.
// Corrupt, stale or mismatched disk entries are ignored (and overwritten
// after recomputation), never fatal.
//
// A failed computation is never cached: the error reaches the failing
// request and every request that was blocked on it, and the key is
// forgotten, so the next request retries. A transient failure (exhausted
// memory, a canceled context) therefore cannot poison a key for the life
// of a long-lived service.
//
// A positive limit bounds the number of characterization files kept in
// the directory: serving an entry refreshes its modification time (at
// most once per entry per touchInterval, so hot keys cost no syscalls),
// and writing one past the bound evicts the least-recently-used files, so
// a long-lived service sweeping many scales and schemes cannot grow the
// directory without bound. The in-memory map is not bounded — live
// entries are shared and small in number compared with the files a
// service accretes over months.
type CharCache struct {
	disk   diskCache
	flight singleflight[CharKey, *core.Characterization]
}

// NewCharCache returns a cache persisting under dir; an empty dir keeps
// the cache memory-only. A positive limit bounds the characterization
// file count under dir with least-recently-used eviction; zero means
// unbounded.
func NewCharCache(dir string, limit int) *CharCache {
	return &CharCache{disk: diskCache{dir: dir, limit: limit, prefix: "char"}}
}

// Get returns the characterization for key, running compute on first use
// unless a valid disk entry exists. gridN is the chip's block count,
// used to validate deserialized entries. The returned flag reports a
// cache hit: true when the NoC stage was skipped (entry already in
// memory or restored from disk), false when compute ran — a caller that
// merely waited on another goroutine's in-flight compute is not a hit,
// because the sweep did pay for the NoC stage. A compute error is
// returned to this caller and any goroutine that was blocked on the same
// key, but is not cached: the key is cleared so the next request
// retries.
func (c *CharCache) Get(key CharKey, gridN int, compute func() (*core.Characterization, error)) (*core.Characterization, bool, error) {
	return c.flight.do(key,
		func() (*core.Characterization, bool) {
			d := c.load(key, gridN)
			return d, d != nil
		},
		func() (*core.Characterization, error) {
			d, err := compute()
			if err != nil {
				return nil, err
			}
			c.save(key, gridN, d)
			return d, nil
		},
		func(last *atomic.Int64) {
			// Memory hits must count as use for the on-disk LRU too —
			// load() touched the file once, but a long-lived service
			// serves hot entries from memory for months afterwards, and
			// those entries must not look idle to eviction. Debounced:
			// chunked sweeps hit one key up to Workers times.
			c.disk.touchDebounced(c.path(key), last)
		})
}

// path maps a key to its file under the cache directory. The slugs keep
// filenames readable; the hash of the raw names keeps distinct keys that
// slug identically from evicting each other's entries.
func (c *CharCache) path(key CharKey) string {
	return filepath.Join(c.disk.dir, fmt.Sprintf("char_%s_%s_s%d_%s.gob",
		slug(key.Config), slug(key.Scheme), key.Scale, nameHash(key.Config, key.Scheme)))
}

// load restores a disk entry, returning nil on any problem — a missing,
// unreadable, corrupt, stale-format or mismatched file means "compute it
// again", never an error.
func (c *CharCache) load(key CharKey, gridN int) *core.Characterization {
	var dc diskChar
	if !c.disk.load(c.path(key), &dc) {
		return nil
	}
	if dc.Version != charFormatVersion || dc.Key != key || dc.GridN != gridN {
		return nil
	}
	if err := dc.Data.Validate(gridN); err != nil {
		return nil
	}
	// Touch the file so LRU eviction sees a served entry as recently
	// used, not as old as its original write.
	c.disk.touch(c.path(key))
	return &dc.Data
}

// save persists an entry best-effort; see diskCache.save.
func (c *CharCache) save(key CharKey, gridN int, data *core.Characterization) {
	if data == nil {
		return
	}
	c.disk.save(c.path(key), diskChar{
		Version: charFormatVersion,
		Key:     key,
		GridN:   gridN,
		Data:    *data,
	})
}
