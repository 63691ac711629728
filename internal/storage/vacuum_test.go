package storage

import (
	"fmt"
	"testing"

	"vdm/internal/types"
)

// Unit tests for MVCC version GC: reclamation at the watermark, the
// old→new remap chain that keeps buffered transaction positions valid
// across compactions, and the consistency of unique indexes and zone
// maps in the rebuilt store.

func deleteKey(t *testing.T, db *DB, tbl *Table, key int64) {
	t.Helper()
	snap := tbl.SnapshotAt(db.CurrentTS())
	pos := findKey(snap, key)
	if pos < 0 {
		t.Fatalf("key %d not live", key)
	}
	tx := db.Begin()
	if err := tx.DeleteAt(snap, pos); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumRemovesDeadVersions(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 10)
	for key := int64(0); key < 4; key++ {
		deleteKey(t, db, tbl, key)
	}
	snap := tbl.SnapshotAt(db.CurrentTS())
	if n := snap.NumRowVersions(); n != 10 {
		t.Fatalf("row versions before vacuum = %d, want 10", n)
	}

	removed, err := tbl.Vacuum(endInfinity)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("vacuum removed %d, want 4", removed)
	}
	after := tbl.SnapshotAt(db.CurrentTS())
	if n := after.NumRowVersions(); n != 6 {
		t.Fatalf("row versions after vacuum = %d, want 6", n)
	}
	got := dumpRange(tbl, db.CurrentTS(), 0, 1000)
	if len(got) != 6 {
		t.Fatalf("live rows after vacuum: %s", describe(got))
	}
	for key := int64(4); key < 10; key++ {
		if got[key] != fmt.Sprintf("v%d", key) {
			t.Fatalf("key %d lost or changed: %s", key, describe(got))
		}
	}
	// A second pass finds nothing.
	if removed, err = tbl.Vacuum(endInfinity); err != nil || removed != 0 {
		t.Fatalf("idempotent re-vacuum: removed=%d err=%v", removed, err)
	}
	if db.Metrics().VacuumedVersions.Value() != 4 {
		t.Fatalf("vacuumed_versions = %d, want 4", db.Metrics().VacuumedVersions.Value())
	}
	if db.Metrics().Vacuums.Value() != 1 {
		t.Fatalf("vacuums = %d, want 1 (empty passes do not count)", db.Metrics().Vacuums.Value())
	}
}

// TestVacuumWatermarkClamp passes explicit watermarks: versions whose
// end timestamp is above the requested watermark survive, and a
// DB-owned table additionally clamps to the snapshot watermark of any
// registered lease.
func TestVacuumWatermarkClamp(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 6)
	tsBeforeDeletes := db.CurrentTS()
	deleteKey(t, db, tbl, 0)
	tsMid := db.CurrentTS()
	deleteKey(t, db, tbl, 1)

	// Watermark below both delete timestamps: nothing is provably dead.
	if removed, err := tbl.Vacuum(tsBeforeDeletes); err != nil || removed != 0 {
		t.Fatalf("vacuum@%d: removed=%d err=%v", tsBeforeDeletes, removed, err)
	}
	// Watermark covering only the first delete.
	if removed, err := tbl.Vacuum(tsMid); err != nil || removed != 1 {
		t.Fatalf("vacuum@%d: removed=%d err=%v", tsMid, removed, err)
	}
	// A lease clamps the watermark to its read timestamp: versions dying
	// after it survive, versions dying at or before it are invisible
	// even to the lease (visibility is ts < end) and remain
	// reclaimable. Key 1 died exactly at the lease's timestamp, key 2
	// dies after it.
	lease := db.AcquireRead()
	deleteKey(t, db, tbl, 2)
	if removed, err := tbl.Vacuum(endInfinity); err != nil || removed != 1 {
		t.Fatalf("vacuum under lease: removed=%d err=%v (want the key-1 version only)", removed, err)
	}
	got := dumpRange(tbl, db.CurrentTS(), 0, 1000)
	if leased := dumpRange(tbl, lease.TS(), 0, 1000); len(leased) != len(got)+1 {
		t.Fatalf("leased view lost the key-2 version: leased=%s current=%s",
			describe(leased), describe(got))
	}
	lease.Release()
	if removed, err := tbl.Vacuum(endInfinity); err != nil || removed != 1 {
		t.Fatalf("vacuum after release: removed=%d err=%v (want the key-2 version)", removed, err)
	}
}

// TestVacuumRemapChain buffers a transaction write against a
// pre-vacuum snapshot, compacts the table twice (two links in the
// remap chain, forced by vacuuming at two successive watermarks), and
// then commits: the buffered position must translate through both
// compactions to the row it originally named.
func TestVacuumRemapChain(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 8)
	deleteKey(t, db, tbl, 0)
	ts1 := db.CurrentTS() // key 0's version dies at ts1
	deleteKey(t, db, tbl, 1)
	ts2 := db.CurrentTS() // key 1's version dies at ts2

	// Buffer a delete of key 5 against the current (pre-vacuum) layout.
	snap := tbl.SnapshotAt(db.CurrentTS())
	pos := findKey(snap, 5)
	if pos < 0 {
		t.Fatal("key 5 not live")
	}
	tx := db.Begin()
	if err := tx.DeleteAt(snap, pos); err != nil {
		t.Fatal(err)
	}

	// Two compactions at successive watermarks, each removing one of the
	// dead versions and shifting every later position down.
	if removed, err := tbl.Vacuum(ts1); err != nil || removed != 1 {
		t.Fatalf("first vacuum: removed=%d err=%v", removed, err)
	}
	if removed, err := tbl.Vacuum(ts2); err != nil || removed != 1 {
		t.Fatalf("second vacuum: removed=%d err=%v", removed, err)
	}

	// The buffered position is now two data versions old.
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit across two compactions: %v", err)
	}
	got := dumpRange(tbl, db.CurrentTS(), 0, 1000)
	want := map[int64]string{2: "v2", 3: "v3", 4: "v4", 6: "v6", 7: "v7"}
	if !mapsEqual(got, want) {
		t.Fatalf("remap chain misdirected the delete\ngot:  %s\nwant: %s", describe(got), describe(want))
	}
}

// TestVacuumUniqueIndexConsistency checks the rebuilt unique index:
// vacuumed keys are reusable, live keys still conflict, and the index
// positions track the compacted layout.
func TestVacuumUniqueIndexConsistency(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 5)
	deleteKey(t, db, tbl, 2)
	if removed, err := tbl.Vacuum(endInfinity); err != nil || removed != 1 {
		t.Fatalf("vacuum: removed=%d err=%v", removed, err)
	}

	// The vacuumed key is free for reuse.
	tx := db.Begin()
	if err := tx.Insert(tbl, types.Row{types.NewInt(2), types.NewString("reborn")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("reinsert of vacuumed key: %v", err)
	}
	// A live key still conflicts — through the rebuilt index.
	tx = db.Begin()
	if err := tx.Insert(tbl, types.Row{types.NewInt(3), types.NewString("dup")}); err == nil {
		if err := tx.Commit(); err == nil {
			t.Fatal("duplicate of live key 3 committed after vacuum")
		}
	} else {
		tx.Rollback()
	}
	got := dumpRange(tbl, db.CurrentTS(), 0, 1000)
	want := map[int64]string{0: "v0", 1: "v1", 2: "reborn", 3: "v3", 4: "v4"}
	if !mapsEqual(got, want) {
		t.Fatalf("post-vacuum content wrong\ngot:  %s\nwant: %s", describe(got), describe(want))
	}
}

// TestVacuumZoneMapConsistency compacts a merged, zone-mapped table and
// checks that pruned scans over the rebuilt store agree with unpruned
// ones (zone maps are rebuilt for the compacted main fragment).
func TestVacuumZoneMapConsistency(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 3000)
	if err := tbl.MergeDelta(); err != nil { // builds zone maps
		t.Fatal(err)
	}
	// Kill a stripe in the middle so compaction shifts block contents.
	snap0 := tbl.SnapshotAt(db.CurrentTS())
	tx := db.Begin()
	for _, r := range snap0.Rows() {
		if k := snap0.Row(r)[0].Int(); k >= 1000 && k < 1400 {
			if err := tx.DeleteAt(snap0, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if removed, err := tbl.Vacuum(endInfinity); err != nil || removed != 400 {
		t.Fatalf("vacuum: removed=%d err=%v", removed, err)
	}

	snap := tbl.SnapshotAt(db.CurrentTS())
	lo, hi := types.NewInt(2000), types.NewInt(2200)
	ranges := []ColRange{{Ord: 0, Lo: &lo, Hi: &hi, HiOpen: true}}
	pruned, _ := snap.CollectVisible(0, snap.NumRowVersions(), ranges, nil)
	unpruned, _ := snap.CollectVisible(0, snap.NumRowVersions(), nil, nil)
	keyOf := func(positions []int) map[int64]bool {
		out := map[int64]bool{}
		for _, r := range positions {
			if k := snap.Row(r)[0].Int(); k >= 2000 && k < 2200 {
				out[k] = true
			}
		}
		return out
	}
	gotPruned, gotAll := keyOf(pruned), keyOf(unpruned)
	if len(gotAll) != 200 {
		t.Fatalf("unpruned scan found %d keys in [2000,2200), want 200", len(gotAll))
	}
	if len(gotPruned) != 200 {
		t.Fatalf("pruned scan found %d keys in [2000,2200), want 200", len(gotPruned))
	}
	// The rebuilt zone maps must actually prune: 2600 surviving rows
	// cover 3 blocks, and the range hits only one of them.
	if len(pruned) >= len(unpruned) {
		t.Fatalf("pruning ineffective after vacuum: %d vs %d positions", len(pruned), len(unpruned))
	}
}

// TestVacuumStandaloneTable covers the no-DB path: the caller's
// watermark is trusted as-is.
func TestVacuumStandaloneTable(t *testing.T) {
	tbl := NewTable("solo", types.Schema{
		{Name: "k", Type: types.TInt, NotNull: true},
		{Name: "v", Type: types.TString},
	})
	// Standalone tables are written through internal hooks in tests;
	// simulate two versions manually.
	tbl.mu.Lock()
	for i := 0; i < 4; i++ {
		if _, err := tbl.insertLocked(types.Row{types.NewInt(int64(i)), types.NewString("x")}, 5); err != nil {
			tbl.mu.Unlock()
			t.Fatal(err)
		}
	}
	tbl.deleteLocked(0, 7)
	tbl.deleteLocked(1, 9)
	tbl.mu.Unlock()

	if removed, err := tbl.Vacuum(8); err != nil || removed != 1 {
		t.Fatalf("standalone vacuum@8: removed=%d err=%v", removed, err)
	}
	if removed, err := tbl.Vacuum(9); err != nil || removed != 1 {
		t.Fatalf("standalone vacuum@9: removed=%d err=%v", removed, err)
	}
	snap := tbl.SnapshotAt(10)
	if n := snap.Count(); n != 2 {
		t.Fatalf("live rows = %d, want 2", n)
	}
}
