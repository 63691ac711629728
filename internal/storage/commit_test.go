package storage

import (
	"fmt"
	"testing"

	"vdm/internal/types"
)

// Tests of the commit path's grouping of a transaction's writes by table
// and of the dictionary reverse index that compaction leaves to the next
// write.

// kvTables creates n keyed (k BIGINT primary key, v VARCHAR) tables.
func kvTables(t *testing.T, db *DB, n int) []*Table {
	t.Helper()
	tbls := make([]*Table, n)
	for i := range tbls {
		tbl, err := db.CreateTable(fmt.Sprintf("kv%d", i), types.Schema{
			{Name: "k", Type: types.TInt, NotNull: true},
			{Name: "v", Type: types.TString},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AddKey(KeyConstraint{Name: "pk", Columns: []int{0}, Primary: true}); err != nil {
			t.Fatal(err)
		}
		tbls[i] = tbl
	}
	return tbls
}

func kvRow(k int64, v string) types.Row {
	return types.Row{types.NewInt(k), types.NewString(v)}
}

// TestCommitInterleavedTables commits one transaction whose writes
// alternate between more tables than the commit's inline table list
// holds and more writes than the transaction's inline buffer: every
// table must receive exactly its own writes, in the order they were
// buffered, and a constraint failure in the last table must undo the
// writes already applied to all the others.
func TestCommitInterleavedTables(t *testing.T) {
	db := NewDB()
	tbls := kvTables(t, db, 6)
	const perTable = 5

	tx := db.Begin()
	for round := 0; round < perTable; round++ {
		for ti, tbl := range tbls {
			if err := tx.Insert(tbl, kvRow(int64(round), fmt.Sprintf("t%d-r%d", ti, round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ts := db.CurrentTS()
	for ti, tbl := range tbls {
		snap := tbl.SnapshotAt(ts)
		rows := snap.Rows()
		if len(rows) != perTable {
			t.Fatalf("table %d holds %d rows, want %d", ti, len(rows), perTable)
		}
		for i, r := range rows {
			row := snap.Row(r)
			if want := fmt.Sprintf("t%d-r%d", ti, i); row[0].Int() != int64(i) || row[1].Str() != want {
				t.Fatalf("table %d position %d holds (%d, %q), want (%d, %q)", ti, i, row[0].Int(), row[1].Str(), i, want)
			}
		}
	}

	// Delete one row and insert another in every table, interleaved; the
	// last table's insert collides with a live key.
	tx = db.Begin()
	for ti, tbl := range tbls {
		snap := tx.Snapshot(tbl)
		pos, ok := snap.LookupUnique(0, types.Row{types.NewInt(0)})
		if !ok {
			t.Fatalf("table %d: key 0 not found", ti)
		}
		if err := tx.DeleteAt(snap, pos); err != nil {
			t.Fatal(err)
		}
		key := int64(100)
		if ti == len(tbls)-1 {
			key = 1 // live
		}
		if err := tx.Insert(tbl, kvRow(key, "late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("a duplicate key in the sixth table committed")
	}
	if db.CurrentTS() != ts {
		t.Fatalf("a failed commit moved the clock from %d to %d", ts, db.CurrentTS())
	}
	for ti, tbl := range tbls {
		snap := tbl.SnapshotAt(db.CurrentTS())
		if n := snap.Count(); n != perTable {
			t.Fatalf("table %d holds %d rows after the rolled-back commit, want %d", ti, n, perTable)
		}
		if _, ok := snap.LookupUnique(0, types.Row{types.NewInt(0)}); !ok {
			t.Fatalf("table %d: the rolled-back delete of key 0 left it out of the unique index", ti)
		}
		if _, ok := snap.LookupUnique(0, types.Row{types.NewInt(100)}); ok {
			t.Fatalf("table %d: the rolled-back insert of key 100 is still indexed", ti)
		}
		if tbl.StatsSnapshot().Rows != perTable {
			t.Fatalf("table %d: live row counter %d after rollback, want %d", ti, tbl.StatsSnapshot().Rows, perTable)
		}
	}
}

// stringDicts returns the main and delta dictionaries of a column.
func stringDicts(tbl *Table, col int) (main, delta *dict) {
	c := tbl.currentData().cols[col]
	return c.main.(*stringFragment).dict, c.delta.(*stringFragment).dict
}

// TestCompactionLeavesDictionaryIndexToNextWrite pins the dictionary's
// reverse index as built on demand: compaction produces code tables
// without one, and the first write that needs a lookup — an insert into
// the delta, a merge into the main fragment — rebuilds it from the code
// table, so a value the fragment already holds keeps its code.
func TestCompactionLeavesDictionaryIndexToNextWrite(t *testing.T) {
	db, tbl := newKVTable(t)
	insert := func(k int64, v string) {
		t.Helper()
		tx := db.Begin()
		if err := tx.Insert(tbl, kvRow(k, v)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range []string{"a", "b", "c", "a"} {
		insert(int64(k), v)
	}
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	for k, v := range []string{"x", "y"} {
		insert(int64(10+k), v)
	}
	deleteKey(t, db, tbl, 1)  // the only "b": dropped from the main dictionary
	deleteKey(t, db, tbl, 11) // the only "y": dropped from the delta dictionary
	if n, err := tbl.Vacuum(endInfinity); err != nil || n != 2 {
		t.Fatalf("vacuum removed %d versions (err %v), want 2", n, err)
	}
	main, delta := stringDicts(tbl, 1)
	if main.idx != nil || delta.idx != nil {
		t.Fatal("compaction built a dictionary reverse index")
	}
	if fmt.Sprint(main.vals, delta.vals) != "[a c] [x]" {
		t.Fatalf("compacted code tables %v %v, want [a c] [x]", main.vals, delta.vals)
	}

	insert(20, "x") // already in the delta dictionary
	insert(21, "z")
	if _, delta = stringDicts(tbl, 1); fmt.Sprint(delta.vals) != "[x z]" || len(delta.idx) != 2 {
		t.Fatalf("delta dictionary after two inserts: %v with %d indexed, want [x z] with 2", delta.vals, len(delta.idx))
	}
	insert(22, "c") // already in the main dictionary
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if main, _ = stringDicts(tbl, 1); fmt.Sprint(main.vals) != "[a c x z]" || len(main.idx) != 4 {
		t.Fatalf("main dictionary after the merge: %v with %d indexed, want [a c x z] with 4", main.vals, len(main.idx))
	}
	got := dumpRange(tbl, db.CurrentTS(), 0, 100)
	want := map[int64]string{0: "a", 2: "c", 3: "a", 10: "x", 20: "x", 21: "z", 22: "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table reads %v, want %v", got, want)
	}
}

// TestVersionUnderConcurrentCommits reads Table.Version, which takes no
// lock, while another goroutine commits: a version once seen never goes
// back, and a snapshot taken after it was seen covers it, because a
// commit stores its version before the DB clock moves past it. Reuse of
// hash builds across statements relies on both. Run it under -race.
func TestVersionUnderConcurrentCommits(t *testing.T) {
	db := NewDB()
	tbls := kvTables(t, db, 2)
	const commits = 400
	done := make(chan error, 1)
	go func() {
		for i := range commits {
			tx := db.Begin()
			if err := tx.Insert(tbls[i%2], kvRow(int64(i), "v")); err != nil {
				done <- err
				return
			}
			if err := tx.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var last [2]uint64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		for k, tbl := range tbls {
			v := tbl.Version()
			lease := db.AcquireRead()
			ts := lease.TS()
			lease.Release()
			if v < last[k] {
				t.Fatalf("table %d: version went back from %d to %d", k, last[k], v)
			}
			if v > ts {
				t.Fatalf("table %d: version %d seen before the clock reached it (snapshot %d)", k, v, ts)
			}
			last[k] = v
		}
	}
	if got, want := max(tbls[0].Version(), tbls[1].Version()), db.CurrentTS(); got != want {
		t.Fatalf("last version %d, want the last commit %d", got, want)
	}
}
