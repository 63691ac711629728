package storage

import (
	"testing"

	"vdm/internal/types"
)

func zoneTable(t *testing.T, n int) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("z", types.Schema{
		{Name: "k", Type: types.TInt, NotNull: true},
		{Name: "v", Type: types.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < n; i++ {
		// Monotone key: blocks have tight, disjoint ranges.
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("x")})
	}
	if err := db.InsertRows("z", rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func iv(n int64) *types.Value { v := types.NewInt(n); return &v }

func collectPruned(db *DB, tbl *Table, ranges []ColRange) []int {
	snap := tbl.SnapshotAt(db.CurrentTS())
	out, _ := snap.CollectVisible(0, snap.NumRowVersions(), ranges, nil)
	return out
}

func TestZoneMapEqPruning(t *testing.T) {
	db, tbl := zoneTable(t, 5000)
	got := collectPruned(db, tbl, []ColRange{{Ord: 0, Eq: iv(4200)}})
	// Only the containing block survives pruning: value 4200 lives in
	// block 4, which holds rows 4096..4999 (a 904-row tail block).
	if want := 5000 - 4096; len(got) != want {
		t.Fatalf("surviving rows = %d, want one block (%d)", len(got), want)
	}
	found := false
	for _, r := range got {
		if r == 4200 {
			found = true
		}
	}
	if !found {
		t.Fatal("pruning dropped the matching row")
	}
}

func TestZoneMapRangePruning(t *testing.T) {
	db, tbl := zoneTable(t, 5000)
	got := collectPruned(db, tbl, []ColRange{{Ord: 0, Lo: iv(4090), Hi: iv(4100)}})
	// The range straddles blocks 3 (rows 3072..4095) and 4 (the 904-row
	// tail): both survive, blocks 0–2 are pruned.
	if want := zoneBlockSize + (5000 - 4096); len(got) != want {
		t.Fatalf("surviving rows = %d, want %d", len(got), want)
	}
	// Open bounds at block edges.
	got = collectPruned(db, tbl, []ColRange{{Ord: 0, Lo: iv(1023), LoOpen: true, Hi: iv(1024), HiOpen: false}})
	// Value 1024 is the first row of block 1; block 0's max is 1023 and
	// the lower bound is open, so block 0 is pruned.
	for _, r := range got {
		if r < 1024 {
			t.Fatalf("block 0 should be pruned (row %d survived)", r)
		}
	}
}

func TestZoneMapDeltaAlwaysScanned(t *testing.T) {
	db, tbl := zoneTable(t, 2048)
	// New rows land in the delta, beyond zone-map coverage.
	tx := db.Begin()
	if err := tx.Insert(tbl, types.Row{types.NewInt(99999), types.NewString("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := collectPruned(db, tbl, []ColRange{{Ord: 0, Eq: iv(99999)}})
	found := false
	for _, r := range got {
		if r == 2048 {
			found = true
		}
	}
	if !found {
		t.Fatal("delta row must not be pruned")
	}
}

func TestZoneMapNoMapsMeansNoPruning(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("raw", types.Schema{{Name: "k", Type: types.TInt}})
	_ = db.InsertRows("raw", []types.Row{{types.NewInt(1)}, {types.NewInt(2)}})
	// No merge/refresh: everything scanned.
	got := collectPruned(db, tbl, []ColRange{{Ord: 0, Eq: iv(1)}})
	if len(got) != 2 {
		t.Fatalf("rows = %d, want 2 (no pruning without zone maps)", len(got))
	}
}

func TestZoneMapAllNullBlockPruned(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("nl", types.Schema{{Name: "k", Type: types.TInt}})
	var rows []types.Row
	for i := 0; i < zoneBlockSize; i++ {
		rows = append(rows, types.Row{types.NewNull(types.TInt)})
	}
	rows = append(rows, types.Row{types.NewInt(7)})
	if err := db.InsertRows("nl", rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	got := collectPruned(db, tbl, []ColRange{{Ord: 0, Eq: iv(7)}})
	if len(got) != 1 || got[0] != zoneBlockSize {
		t.Fatalf("got = %v, want only the non-NULL row", got)
	}
}

func BenchmarkZoneMapPruning(b *testing.B) {
	db := NewDB()
	tbl, _ := db.CreateTable("big", types.Schema{{Name: "k", Type: types.TInt}})
	var rows []types.Row
	for i := 0; i < 200000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := db.InsertRows("big", rows); err != nil {
		b.Fatal(err)
	}
	if err := tbl.MergeDelta(); err != nil {
		b.Fatal(err)
	}
	ranges := []ColRange{{Ord: 0, Lo: iv(150000), Hi: iv(150100)}}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := len(collectPruned(db, tbl, ranges)); n == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := len(collectPruned(db, tbl, nil)); n == 0 {
				b.Fatal("no rows")
			}
		}
	})
}
