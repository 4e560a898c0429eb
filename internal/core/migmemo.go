//hotnoc:deterministic

package core

import (
	"hotnoc/internal/geom"
	"hotnoc/internal/noc"
)

// migrationMemo records the effect of every distinct migration run by the
// migrators that share it: a build's migrator and every migrator Forked
// from it. A migration that starts on a drained network ends drained, and
// its cycles, statistics, activity and final arbitration pointers are a
// pure function of the network's grid and configuration, the migrator's
// parameters, the permutation and the arbitration pointers its window
// observes (see noc.Window). The memo keys on all but the pointers;
// noc.Replay checks those, and PlanPhases' congestion-free phases never
// contest an output port, so a migration's window observes none.
type migrationMemo = noc.Memo[migrationEffect]

// migrationEffect is what a recorded migration changes outside the
// network's own counters: the conversion words per block, the number of
// packet IDs it took, and its outcome.
type migrationEffect struct {
	conv  []uint64
	ids   uint64
	stats MigrationStats
}

// migrationEntry is one recorded migration.
type migrationEntry = noc.MemoEntry[migrationEffect]

// lookupMemo returns the memo entry for migrating by perm and whether this
// migrator must record it, or nil when the memo does not apply: the
// migrator has none, or traffic is in flight.
func (m *Migrator) lookupMemo(perm geom.Perm) (*migrationEntry, bool) {
	if m.memo == nil || m.Net.Busy() {
		return nil, false
	}
	return m.memo.Get(m.memoKey(perm))
}

// memoKey writes the key of migrating by perm into the migrator's scratch
// and returns it: the grid, the network configuration, StateFlits,
// PhaseSyncCycles, DrainTimeout and every destination of perm.
//
//hotnoc:noalloc
func (m *Migrator) memoKey(perm geom.Perm) []byte {
	net := m.Net
	k := m.key[:0]
	for _, v := range [...]int64{int64(net.Grid.W), int64(net.Grid.H),
		int64(net.Cfg.BufDepth), int64(net.Cfg.InjectCap),
		int64(m.StateFlits), int64(m.PhaseSyncCycles), m.DrainTimeout} {
		k = appendUint(k, uint64(v), 8)
	}
	for i := range perm.Len() {
		k = appendUint(k, uint64(perm.Dst(i)), 4)
	}
	m.key = k
	return k
}

// appendUint appends the low n bytes of v to b, little-endian.
//
//hotnoc:noalloc
func appendUint(b []byte, v uint64, n int) []byte {
	for i := range n {
		b = append(b, byte(v>>(8*i))) //hotnoc:allow noalloc grows the migrator's key scratch on its first migration, reused after
	}
	return b
}

// replay applies a resolved entry's migration to the network: the
// recorded window, the conversion words and the packet IDs. It reports
// false, changing nothing, when the entry holds no recording or the
// network's arbitration pointers differ from the recording's on a port
// its window observed.
//
//hotnoc:noalloc
func (m *Migrator) replay(ent *migrationEntry) bool {
	if !ent.Wait() || !m.Net.Replay(&ent.Win) {
		return false
	}
	for i, v := range ent.Val.conv {
		m.Net.Act.ConvWords[i] += v
	}
	m.Net.TakeIDs(ent.Val.ids)
	return true
}

// record steps the migration as the owner of ent, recording its network
// window, conversion-word delta, packet IDs and outcome, and publishes
// the entry.
func (m *Migrator) record(ent *migrationEntry, perm geom.Perm) (MigrationStats, error) {
	v := &ent.Val
	v.conv = append([]uint64(nil), m.Net.Act.ConvWords...)
	v.ids = m.Net.IDs()
	m.Net.BeginWindow(&ent.Win)
	stats, err := m.execute(perm)
	ok := m.Net.EndWindow(&ent.Win) && err == nil
	if ok {
		for i, x := range m.Net.Act.ConvWords {
			v.conv[i] = x - v.conv[i]
		}
		v.ids = m.Net.IDs() - v.ids
		v.stats = stats
	}
	m.memo.Publish(ent, ok)
	return stats, err
}
