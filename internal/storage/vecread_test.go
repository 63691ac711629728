package storage

import (
	"fmt"
	"testing"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// vecFixture builds a table of every column type with rows split across
// the main and delta fragments, NULLs in both, and a deleted row version
// in between — the full layout FillVecs has to read through.
func vecFixture(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("mix", types.Schema{
		{Name: "i", Type: types.TInt},
		{Name: "s", Type: types.TString},
		{Name: "d", Type: types.TDecimal},
		{Name: "f", Type: types.TFloat},
		{Name: "b", Type: types.TBool},
		{Name: "dt", Type: types.TDate},
	})
	if err != nil {
		t.Fatal(err)
	}
	mkRow := func(i int64, s string, coef int64, f float64, b bool, dt int64) types.Row {
		return types.Row{
			types.NewInt(i),
			types.NewString(s),
			types.NewDecimal(decimal.Decimal{Coef: coef, Scale: 2}),
			types.NewFloat(f),
			types.NewBool(b),
			types.NewDate(dt),
		}
	}
	nullRow := func(i int64) types.Row {
		return types.Row{
			types.NewInt(i),
			types.NewNull(types.TString),
			types.NewNull(types.TDecimal),
			types.NewNull(types.TFloat),
			types.NewNull(types.TBool),
			types.NewNull(types.TDate),
		}
	}
	// First generation: merged into the main fragment.
	if err := db.InsertRows("mix", []types.Row{
		mkRow(1, "alpha", 100, 1.5, true, 9000),
		mkRow(2, "beta", -250, -2.5, false, 9001),
		nullRow(3),
		mkRow(4, "alpha", 0, 0, true, 9002),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	// Second generation: stays in the delta; reuses one main dictionary
	// string ("alpha") and introduces new ones, so delta codes must be
	// rebased past the main dictionary.
	if err := db.InsertRows("mix", []types.Row{
		mkRow(5, "gamma", 777, 7.75, false, 9100),
		nullRow(6),
		mkRow(7, "alpha", -1, 0.25, true, 9101),
	}); err != nil {
		t.Fatal(err)
	}
	// A dead version: delete row i=2 so visibility filtering matters.
	lease := db.AcquireRead()
	defer lease.Release()
	snap := tbl.SnapshotAt(lease.TS())
	tx := db.Begin()
	for _, pos := range snap.Rows() {
		if snap.Value(pos, 0).Int() == 2 {
			if err := tx.DeleteAt(snap, pos); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestFillVecsMatchesRowReads checks FillVecs against per-row ValuesInto
// for every visible row and column, across main/delta fragments, NULLs,
// and dictionary rebasing.
func TestFillVecsMatchesRowReads(t *testing.T) {
	db, tbl := vecFixture(t)
	snap := tbl.SnapshotAt(db.CurrentTS())

	rows, _ := snap.CollectVisible(0, snap.NumRowVersions(), nil, nil)
	if len(rows) != 6 {
		t.Fatalf("visible rows = %d, want 6", len(rows))
	}
	ords := []int{0, 1, 2, 3, 4, 5}
	vecs := make([]*types.Vec, len(ords))
	for i := range vecs {
		vecs[i] = &types.Vec{}
	}
	snap.FillVecs(rows, ords, vecs)

	want := make(types.Row, len(ords))
	for i, pos := range rows {
		snap.ValuesInto(pos, ords, want)
		for k := range ords {
			got := vecs[k].Value(i)
			if !got.IsNull() || !want[k].IsNull() {
				if eq := types.Equal(got, want[k]); !eq {
					t.Errorf("row %d col %d: vec %v, row read %v", pos, k, got, want[k])
				}
			}
			if got.IsNull() != want[k].IsNull() {
				t.Errorf("row %d col %d: vec null=%v, row read null=%v", pos, k, got.IsNull(), want[k].IsNull())
			}
		}
	}
}

// TestFillVecsDictRebase pins the combined-code contract: delta string
// codes are offset by the main dictionary size, and codes for the same
// string differ across fragments while decoding identically.
func TestFillVecsDictRebase(t *testing.T) {
	db, tbl := vecFixture(t)
	snap := tbl.SnapshotAt(db.CurrentTS())
	rows, _ := snap.CollectVisible(0, snap.NumRowVersions(), nil, nil)

	v := &types.Vec{}
	snap.FillVecs(rows, []int{1}, []*types.Vec{v})

	byKey := map[int64]int{} // i value -> batch index
	iv := &types.Vec{}
	snap.FillVecs(rows, []int{0}, []*types.Vec{iv})
	for i := range rows {
		byKey[iv.I64[i]] = i
	}

	mainAlpha, deltaAlpha := v.Codes[byKey[1]], v.Codes[byKey[7]]
	if v.Dict.Decode(mainAlpha) != "alpha" || v.Dict.Decode(deltaAlpha) != "alpha" {
		t.Fatalf("alpha decodes: main %q, delta %q",
			v.Dict.Decode(mainAlpha), v.Dict.Decode(deltaAlpha))
	}
	if mainAlpha == deltaAlpha {
		t.Fatalf("delta code %d not rebased past main dictionary", deltaAlpha)
	}
	if int(deltaAlpha) < v.Dict.Size()-2 {
		t.Fatalf("delta code %d below delta range (dict size %d)", deltaAlpha, v.Dict.Size())
	}
	if got := v.Dict.Decode(v.Codes[byKey[5]]); got != "gamma" {
		t.Fatalf("gamma decodes to %q", got)
	}
	// After merging the delta, the same logical column re-encodes: a new
	// fill must still decode correctly even though codes changed.
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	snap2 := tbl.SnapshotAt(db.CurrentTS())
	rows2, _ := snap2.CollectVisible(0, snap2.NumRowVersions(), nil, nil)
	v2, iv2 := &types.Vec{}, &types.Vec{}
	snap2.FillVecs(rows2, []int{1}, []*types.Vec{v2})
	snap2.FillVecs(rows2, []int{0}, []*types.Vec{iv2})
	for i := range rows2 {
		switch iv2.I64[i] {
		case 1, 4, 7:
			if got := v2.Dict.Decode(v2.Codes[i]); got != "alpha" {
				t.Errorf("post-merge row i=%d decodes to %q", iv2.I64[i], got)
			}
		}
	}
}

// runsTypes are the column types of the run-fill fixtures, one fragment
// kind each (a date shares the int fragment).
var runsTypes = []types.Type{types.TInt, types.TDate, types.TBool, types.TFloat, types.TDecimal, types.TString}

// runsDensities name the NULL densities of the fixtures' columns.
var runsDensities = []string{"none", "sparse", "all"}

// runsValue returns row i's value in the column of type typ and NULL
// density d. Sparse NULLs stop at row 2 500, so a later delta's bitmap
// is shorter than its fragment.
func runsValue(typ types.Type, d string, i int) types.Value {
	if d == "all" || d == "sparse" && i < 2500 && (i%5 == 0 || i%37 == 3) {
		return types.NewNull(typ)
	}
	switch typ {
	case types.TInt:
		return types.NewInt(int64(i*31%1000 - 500))
	case types.TDate:
		return types.NewDate(int64(18000 + i%400))
	case types.TBool:
		return types.NewBool(i%3 == 0)
	case types.TFloat:
		return types.NewFloat(float64(i)*0.25 - 100)
	case types.TDecimal:
		return types.NewDecimal(decimal.Decimal{Coef: int64(i*7 - 3000), Scale: int32(i % 3)})
	}
	return types.NewString(fmt.Sprintf("s%d", i*13%(200+i/10)))
}

// insertRuns inserts rows [lo, hi) of the run-fill fixture.
func insertRuns(tb testing.TB, db *DB, lo, hi int) {
	tb.Helper()
	rows := make([]types.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		var row types.Row
		for _, typ := range runsTypes {
			for _, d := range runsDensities {
				row = append(row, runsValue(typ, d, i))
			}
		}
		rows = append(rows, row)
	}
	if err := db.InsertRows("runs", rows); err != nil {
		tb.Fatal(err)
	}
}

// runsTable creates table runs with one column per type and NULL density
// and n rows: rows [0, merged) merged into the main fragment, the rest
// left in the delta. With holes it deletes one row after each run of 1,
// 2, …, 70 kept rows, cycling, so visible runs of every length from 1
// past a bitmap word occur in both fragments.
func runsTable(tb testing.TB, n, merged int, holes bool) (*DB, *Table) {
	tb.Helper()
	db := NewDB()
	var schema types.Schema
	for _, typ := range runsTypes {
		for _, d := range runsDensities {
			schema = append(schema, types.Column{Name: fmt.Sprintf("%s_%s", typ, d), Type: typ})
		}
	}
	tbl, err := db.CreateTable("runs", schema)
	if err != nil {
		tb.Fatal(err)
	}
	insertRuns(tb, db, 0, merged)
	if err := tbl.MergeDelta(); err != nil {
		tb.Fatal(err)
	}
	insertRuns(tb, db, merged, n)
	if !holes {
		return db, tbl
	}
	snap := tbl.SnapshotAt(db.CurrentTS())
	tx := db.Begin()
	for pos, run := 0, 1; pos < n; run = run%70 + 1 {
		pos += run
		if pos < n {
			if err := tx.DeleteAt(snap, pos); err != nil {
				tb.Fatal(err)
			}
		}
		pos++
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db, tbl
}

// checkFill fills rows into vecs and checks every slot against per-row
// ValuesInto: equal values, a NULL's payload zero, and an empty bitmap
// exactly when the vector holds no NULL.
func checkFill(t *testing.T, label string, snap *Snapshot, rows, ords []int, vecs []*types.Vec) {
	t.Helper()
	snap.FillVecs(rows, ords, vecs)
	want := make(types.Row, len(ords))
	hasNull := make([]bool, len(ords))
	for i, pos := range rows {
		snap.ValuesInto(pos, ords, want)
		for k, v := range vecs {
			got := v.Value(i)
			if got.IsNull() != want[k].IsNull() || !got.IsNull() && !types.Equal(got, want[k]) {
				t.Fatalf("%s: position %d column %d: fill %v, row read %v", label, pos, ords[k], got, want[k])
			}
			if !want[k].IsNull() {
				continue
			}
			hasNull[k] = true
			zero := v.Typ == types.TFloat && v.F64[i] == 0 ||
				v.Typ == types.TString && v.Codes[i] == 0 ||
				v.Typ == types.TDecimal && v.I64[i] == 0 && v.Scale[i] == 0 ||
				v.Typ != types.TFloat && v.Typ != types.TString && v.Typ != types.TDecimal && v.I64[i] == 0
			if !zero {
				t.Fatalf("%s: position %d column %d: NULL slot carries a payload", label, pos, ords[k])
			}
		}
	}
	for k, v := range vecs {
		if (len(v.Nulls) > 0) != hasNull[k] {
			t.Fatalf("%s: column %d: %d bitmap words, batch holds a NULL: %v", label, ords[k], len(v.Nulls), hasNull[k])
		}
	}
}

// TestFillVecsRuns checks run-wise FillVecs against per-row reads on a
// 3 000-row table of every fragment type at three NULL densities, with
// deletes punching runs of every length: position windows starting at
// every offset mod 64, in the main fragment and across the main/delta
// boundary, before and after a delta merge and with a new delta after
// it. Vectors are reused from window to window, and each all-NULL
// vector is refilled null-free, which must leave no stale NULL bit.
func TestFillVecsRuns(t *testing.T) {
	db, tbl := runsTable(t, 3000, 2000, true)
	ords := make([]int, 3*len(runsTypes))
	vecs := make([]*types.Vec, len(ords))
	var allVecs []*types.Vec
	var noneOrds []int
	for k := range ords {
		ords[k], vecs[k] = k, &types.Vec{}
		switch runsDensities[k%3] {
		case "none":
			noneOrds = append(noneOrds, k)
		case "all":
			allVecs = append(allVecs, vecs[k])
		}
	}
	check := func(state string, boundary int) {
		snap := tbl.SnapshotAt(db.CurrentTS())
		visible, _ := snap.CollectVisible(0, snap.NumRowVersions(), nil, nil)
		runs := map[int]bool{}
		for i, n := 0, 1; i < len(visible); i += n {
			for n = 1; i+n < len(visible) && visible[i+n] == visible[i]+n; n++ {
			}
			runs[n] = true
		}
		for n := 1; n <= 70; n++ {
			if !runs[n] {
				t.Fatalf("%s: no visible run of length %d", state, n)
			}
		}
		for o := 0; o < 64; o++ {
			for _, base := range []int{0, 640, boundary - 128} {
				for _, size := range []int{1, 7, 65, 300} {
					lo := base + o
					rows, _ := snap.CollectVisible(lo, lo+size, nil, nil)
					if len(rows) == 0 {
						continue
					}
					label := fmt.Sprintf("%s [%d,%d)", state, lo, lo+size)
					checkFill(t, label, snap, rows, ords, vecs)
					checkFill(t, label+" refilled null-free", snap, rows, noneOrds, allVecs)
				}
			}
		}
	}
	check("main+delta", 2000)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	check("merged", 2000)
	insertRuns(t, db, 3000, 3300)
	check("merged+new delta", 3000)
}

// BenchmarkFillVecs fills 1 024-position batches of every fragment type
// from a 20 000-row table: merged dense, merged with deleted holes, and
// split 15 000 main / 5 000 delta, each over columns without NULLs and
// with sparse ones.
func BenchmarkFillVecs(b *testing.B) {
	for _, layout := range []struct {
		name   string
		merged int
		holes  bool
	}{
		{"merged-dense", 20000, false},
		{"merged-holes", 20000, true},
		{"main+delta", 15000, false},
	} {
		db, tbl := runsTable(b, 20000, layout.merged, layout.holes)
		snap := tbl.SnapshotAt(db.CurrentTS())
		for _, density := range []string{"none", "sparse"} {
			var ords []int
			for k := range 3 * len(runsTypes) {
				if runsDensities[k%3] == density {
					ords = append(ords, k)
				}
			}
			vecs := make([]*types.Vec, len(ords))
			for k := range vecs {
				vecs[k] = &types.Vec{}
			}
			var rows []int
			b.Run(layout.name+"/nulls="+density, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					for lo, n := 0, snap.NumRowVersions(); lo < n; lo += 1024 {
						rows, _ = snap.CollectVisible(lo, lo+1024, nil, rows[:0])
						snap.FillVecs(rows, ords, vecs)
					}
				}
			})
		}
	}
}
