package sim

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// diskCache is the on-disk half of a cache: gob envelopes written
// atomically (temp file + rename), best-effort reads where any problem
// means "recompute", per-kind LRU eviction over the file count, a
// debounced modification-time touch so hot in-memory entries stay visible
// to eviction without a syscall per request, and an advisory per-entry
// lock. Each cache kind owns one, differing only in prefix. Every method
// but enabled assumes a directory is configured; cache.Get checks once.
type diskCache struct {
	dir    string
	limit  int
	prefix string // artifact kind; files are named <prefix>_*.gob
}

// enabled reports whether persistence is configured at all.
func (c *diskCache) enabled() bool { return c.dir != "" }

// load restores one gob envelope into v, returning false on any problem —
// a missing, unreadable or corrupt file means "compute it again", never
// an error. Semantic validation (version, key, payload) is the caller's.
func (c *diskCache) load(path string, v any) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v) == nil
}

// save persists one envelope best-effort: a sweep never fails because its
// cache directory is read-only or full. The write goes through a temp
// file and rename so concurrent processes see either the old entry or the
// complete new one, never a torn file. A successful write triggers an
// eviction pass.
func (c *diskCache) save(path string, v any) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(v); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	if os.Rename(tmp.Name(), path) == nil {
		c.evict()
	}
}

// touch refreshes a persisted entry's modification time so eviction sees
// it as recently used. Best effort, like all disk operations here.
func (c *diskCache) touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// touchInterval debounces LRU touches on memory hits: one entry issues at
// most one Chtimes syscall per interval, however hot it runs. Eviction
// granularity only needs to distinguish entries idle for days from
// entries served this minute. A variable so tests can pin it.
var touchInterval = time.Minute

// touchDebounced is touch rate-limited through last, which records the
// entry's previous touch as unix nanoseconds. Chunked sweeps hitting one
// key once per worker — and long-lived services serving one hot key for
// months — stay syscall-free between intervals.
func (c *diskCache) touchDebounced(path string, last *atomic.Int64) {
	now := time.Now().UnixNano()
	prev := last.Load()
	if now-prev < int64(touchInterval) {
		return
	}
	if !last.CompareAndSwap(prev, now) {
		return // another goroutine claimed this interval's touch
	}
	c.touch(path)
}

// evict enforces the file-count bound for this cache's artifact kind:
// when more than limit files carry its prefix, the oldest-touched ones
// are removed until the count fits. Best effort — an unreadable directory
// or a losing race with a concurrent process is ignored. The file just
// written is by construction the newest, so it survives its own pass.
func (c *diskCache) evict() {
	if c.limit <= 0 {
		return
	}
	matches, err := filepath.Glob(filepath.Join(c.dir, c.prefix+"_*.gob"))
	if err != nil || len(matches) <= c.limit {
		return
	}
	type aged struct {
		path string
		mod  time.Time
	}
	files := make([]aged, 0, len(matches))
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		files = append(files, aged{path: m, mod: fi.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for i := 0; i < len(files)-c.limit; i++ {
		_ = os.Remove(files[i].path)
	}
}

// Advisory cross-process locking. Two daemons pointed
// at one cache directory race to compute the same cold key; an advisory
// lock file per entry serializes them so the expensive compute (an
// annealing build, a NoC characterization) runs once and the loser
// reloads the winner's file. The lock is O_CREATE|O_EXCL — portable to every platform Go
// supports, unlike flock — with mtime-based staleness so a crashed
// holder cannot wedge the key forever. Locking is best-effort like
// every disk operation here: an unwritable directory or an exhausted
// wait budget degrades to duplicate work, never to a failed sweep.
var (
	// lockStaleAfter is how old a lock file must be before a contender
	// breaks it: comfortably above the longest paper-scale anneal.
	lockStaleAfter = 10 * time.Minute
	// lockPollEvery is the contender's polling cadence.
	lockPollEvery = 100 * time.Millisecond
	// lockWaitMax bounds how long a contender waits before giving up
	// and computing anyway — duplicate work beats a deadlocked sweep.
	lockWaitMax = 15 * time.Minute
)

// waitLock blocks until it holds the advisory lock for path, returning
// the release function — or nil when locking is unavailable (unwritable
// directory) or the wait budget ran out, in which case the caller
// proceeds unlocked.
func (c *diskCache) waitLock(path string) (release func()) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil
	}
	lockPath := path + ".lock"
	deadline := time.Now().Add(lockWaitMax)
	for {
		f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			// The pid is diagnostic only; identity is the file itself.
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { _ = os.Remove(lockPath) }
		}
		if !os.IsExist(err) {
			return nil
		}
		if fi, serr := os.Stat(lockPath); serr == nil && time.Since(fi.ModTime()) > lockStaleAfter {
			// A crashed holder left the lock behind; break it and retry.
			// Losing the remove race to another contender is fine — the
			// next OpenFile settles who holds the fresh lock.
			_ = os.Remove(lockPath)
			continue
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(lockPollEvery)
	}
}

// slug folds a name into a filesystem-safe token.
func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// nameHash distinguishes raw names whose slugs collide (e.g. custom
// scheme names differing only in punctuation), so such keys cannot evict
// each other's entries.
func nameHash(parts ...string) string {
	h := fnv.New32a()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%08x", h.Sum32())
}
