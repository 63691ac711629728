//go:build !race

package storage

import (
	"testing"

	"vdm/internal/types"
)

// TestCommitAllocations bounds what a short read-modify-write
// transaction over three tables allocates (the race detector adds
// allocations of its own, hence the build tag). The commit path runs
// with the commit lock held, and what it allocates it also leaves for
// the collector to mark beside the next commits.
func TestCommitAllocations(t *testing.T) {
	db := NewDB()
	tbls := kvTables(t, db, 3)
	for _, tbl := range tbls {
		seedKV(t, db, tbl, 0, 4096)
		if err := tbl.MergeDelta(); err != nil {
			t.Fatal(err)
		}
	}
	next := int64(1 << 20)
	victim := int64(0)
	got := testing.AllocsPerRun(500, func() {
		tx := db.Begin()
		// Move a row from the first table to the second and replace one
		// in the third: two deletes, two inserts.
		for _, ti := range []int{0, 2} {
			snap := tx.Snapshot(tbls[ti])
			pos, ok := snap.LookupUnique(0, types.Row{types.NewInt(victim)})
			if !ok {
				t.Fatalf("key %d not found", victim)
			}
			if err := tx.DeleteAt(snap, pos); err != nil {
				t.Fatal(err)
			}
		}
		for _, ti := range []int{1, 2} {
			if err := tx.Insert(tbls[ti], kvRow(next, "moved")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		next++
		victim++
	})
	// Txn, lease, two snapshots, two row clones, the applied list, four
	// position lists and two index keys make 13; the rest is amortized
	// growth of the delta fragments and index tables. Grouping the
	// writes through a map, or building lookup keys on the heap, takes
	// it to 40.
	if got > 16 {
		t.Fatalf("a four-write commit allocates %.0f objects, want at most 16", got)
	}
	t.Logf("a four-write commit allocates %.0f objects", got)
}
