package storage

import "vdm/internal/types"

// Unique-key point lookups: the OLTP side of a mixed workload locates
// individual rows by primary (or any unique) key instead of scanning.
// Lookups answer against a snapshot, so the returned position composes
// directly with Txn.DeleteAt/UpdateAt — the read-modify-write shape of
// a transactional session — and stays valid across Vacuum compactions
// via the snapshot's pinned data version.

// PrimaryKeyIndex returns the index of the table's primary key among
// its key constraints (usable as the keyIdx of Snapshot.LookupUnique),
// or -1 when the table has no primary key.
func (t *Table) PrimaryKeyIndex() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, k := range t.keys {
		if k.Primary {
			return i
		}
	}
	return -1
}

// LookupUnique finds the row position whose key columns (of the key
// constraint keyIdx, in declaration order) equal key, going through the
// unique index of the snapshot's data version. It returns ok=false when
// no such live row exists, when any key value is NULL (NULLs never
// match a unique key), or when the indexed row is not visible at the
// snapshot's timestamp.
//
// The unique index always describes the CURRENT live rows of the data
// version, so for historical snapshots the lookup is conservative: a
// row whose key was re-inserted or updated after the snapshot's
// timestamp resolves to the newer (invisible) version and reports
// ok=false even though an older visible version may exist. Sessions
// that own their keys — the usual OLTP shape, and the one the HTAP
// harness drives — always look up at their transaction's own snapshot,
// where the index and visibility agree.
func (s *Snapshot) LookupUnique(keyIdx int, key types.Row) (int, bool) {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	d := s.data
	if keyIdx < 0 || keyIdx >= len(d.uniqueIdx) {
		return -1, false
	}
	var keyBuf [64]byte
	buf := keyBuf[:0]
	for _, v := range key {
		if v.IsNull() {
			return -1, false
		}
		buf = v.AppendKey(buf)
	}
	pos, ok := d.uniqueIdx[keyIdx][string(buf)]
	if !ok || pos >= len(d.begin) {
		return -1, false
	}
	if !(d.begin[pos] <= s.ts && s.ts < d.end[pos]) {
		return -1, false
	}
	return pos, true
}
