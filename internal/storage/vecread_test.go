package storage

import (
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
