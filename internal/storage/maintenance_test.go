package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// Tests of the O(Δ) maintenance passes: the typed merge/compaction/zone
// kernels against a reference store rebuilt value by value, and the
// amortization line of the background vacuum.

// kernelSchema has one column of each storage type; id is the primary
// key, u a nullable unique key, everything else nullable.
var kernelSchema = types.Schema{
	{Name: "id", Type: types.TInt, NotNull: true},
	{Name: "u", Type: types.TInt},
	{Name: "d", Type: types.TDate},
	{Name: "f", Type: types.TFloat},
	{Name: "b", Type: types.TBool},
	{Name: "s", Type: types.TString},
	{Name: "m", Type: types.TDecimal},
}

func kernelTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("k", kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []KeyConstraint{
		{Name: "pk", Columns: []int{0}, Primary: true},
		{Name: "uq", Columns: []int{1}},
	} {
		if err := tbl.AddKey(k); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// kernelRow draws a row for the given id: every nullable column is NULL
// a fifth of the time, strings mix a small pool with per-row values.
func kernelRow(rng *rand.Rand, id int64) types.Row {
	row := types.Row{
		types.NewInt(id),
		types.NewInt(id * 3),
		types.NewDate(rng.Int63n(20000)),
		types.NewFloat(rng.NormFloat64() * 1e3),
		types.NewBool(rng.Intn(2) == 0),
		types.NewString(fmt.Sprintf("pool-%d", rng.Intn(12))),
		types.NewDecimal(decimal.New(rng.Int63n(2_000_000)-1_000_000, int32(rng.Intn(4)))),
	}
	switch rng.Intn(8) {
	case 0:
		row[3] = types.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
	case 1:
		row[5] = types.NewString(fmt.Sprintf("row-%d", id))
	}
	for c := 1; c < len(row); c++ {
		if rng.Intn(5) == 0 {
			row[c] = types.NewNull(kernelSchema[c].Type)
		}
	}
	return row
}

// storeDump is a boxed copy of a table-data version, taken before a pass
// mutates or retires it.
type storeDump struct {
	rows       []types.Row
	begin, end []uint64
	mainLen    int
	zoned      bool
}

func dumpData(d *tableData) storeDump {
	sd := storeDump{
		begin:   append([]uint64(nil), d.begin...),
		end:     append([]uint64(nil), d.end...),
		mainLen: d.cols[0].main.len(),
		zoned:   d.zoneMaps != nil,
	}
	for r := range d.begin {
		row := make(types.Row, len(d.cols))
		for c, col := range d.cols {
			row[c] = col.get(r)
		}
		sd.rows = append(sd.rows, row)
	}
	return sd
}

// refZoneMap is the boxed reference of zoneMap.extend: every value read
// through get and ordered by types.Compare.
func refZoneMap(f fragment) *zoneMap {
	n := f.len()
	zm := &zoneMap{rows: n}
	for start := 0; start < n; start += zoneBlockSize {
		var z zone
		for i := start; i < min(start+zoneBlockSize, n); i++ {
			v := f.get(i)
			if v.IsNull() {
				z.hasNull = true
				continue
			}
			if !z.has {
				z.min, z.max, z.has = v, v, true
				continue
			}
			if c, err := types.Compare(v, z.min); err == nil && c < 0 {
				z.min = v
			}
			if c, err := types.Compare(v, z.max); err == nil && c > 0 {
				z.max = v
			}
		}
		zm.zones = append(zm.zones, z)
	}
	return zm
}

// rebuild is the reference of both passes: it inserts the dumped
// versions that keep admits, one value at a time, into fresh fragments —
// positions below mainLen into main, the rest into delta — and derives
// the unique indexes and zone maps from the result. It returns the store
// and the old→new position remap.
func (sd storeDump) rebuild(t *testing.T, tbl *Table, keep func(r int) bool, mainLen int, zoned bool) (*tableData, []int) {
	t.Helper()
	nd := &tableData{}
	for _, c := range tbl.schema {
		nd.cols = append(nd.cols, newColumn(c.Type))
	}
	remap := make([]int, len(sd.rows))
	for r, row := range sd.rows {
		if !keep(r) {
			remap[r] = -1
			continue
		}
		remap[r] = len(nd.begin)
		for c, v := range row {
			dst := nd.cols[c].delta
			if r < mainLen {
				dst = nd.cols[c].main
			}
			if err := dst.append(v); err != nil {
				t.Fatal(err)
			}
		}
		nd.begin = append(nd.begin, sd.begin[r])
		nd.end = append(nd.end, sd.end[r])
	}
	for _, k := range tbl.keys {
		idx := map[string]int{}
		for r := range nd.begin {
			if nd.end[r] != endInfinity || nd.begin[r] == endInfinity {
				continue
			}
			if key, hasNull := nd.keyString(r, k.Columns); !hasNull {
				idx[key] = r
			}
		}
		nd.uniqueIdx = append(nd.uniqueIdx, idx)
	}
	if zoned {
		for _, c := range nd.cols {
			nd.zoneMaps = append(nd.zoneMaps, refZoneMap(c.main))
		}
	}
	return nd, remap
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// bitmapState drops the trailing zero words, which carry no bit.
func bitmapState(b nullBitmap) []uint64 {
	w := b.words
	for len(w) > 0 && w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	return nilIfEmpty(w)
}

// fragmentState is a fragment's physical content in a form
// reflect.DeepEqual can compare: raw slices, NULL bitmap, and for
// strings the dictionary in code order.
func fragmentState(t *testing.T, f fragment) any {
	t.Helper()
	switch f := f.(type) {
	case *intFragment:
		return []any{f.typ, nilIfEmpty(f.vals), bitmapState(f.nulls)}
	case *floatFragment:
		return []any{nilIfEmpty(f.vals), bitmapState(f.nulls)}
	case *boolFragment:
		return []any{f.n, bitmapState(f.vals), bitmapState(f.nulls)}
	case *decimalFragment:
		return []any{nilIfEmpty(f.coefs), nilIfEmpty(f.scales), bitmapState(f.nulls)}
	case *stringFragment:
		if f.dict.idx == nil { // left to the next write by compaction
			return []any{nilIfEmpty(f.dict.vals), nilIfEmpty(f.codes), bitmapState(f.nulls)}
		}
		if len(f.dict.idx) != len(f.dict.vals) {
			t.Fatalf("dictionary index holds %d strings, code table %d", len(f.dict.idx), len(f.dict.vals))
		}
		for c, s := range f.dict.vals {
			if f.dict.idx[s] != int32(c) {
				t.Fatalf("dictionary index maps %q to %d, code table to %d", s, f.dict.idx[s], c)
			}
		}
		return []any{nilIfEmpty(f.dict.vals), nilIfEmpty(f.codes), bitmapState(f.nulls)}
	}
	t.Fatalf("unknown fragment %T", f)
	return nil
}

// brief renders a state for a failure message without flooding it.
func brief(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 600 {
		s = s[:600] + "…"
	}
	return s
}

// requireSameData fails unless got is physically the store want.
func requireSameData(t *testing.T, what string, tbl *Table, got, want *tableData) {
	t.Helper()
	if !reflect.DeepEqual(nilIfEmpty(got.begin), nilIfEmpty(want.begin)) ||
		!reflect.DeepEqual(nilIfEmpty(got.end), nilIfEmpty(want.end)) {
		t.Fatalf("%s: visibility arrays differ from the reference", what)
	}
	for c := range want.cols {
		name := tbl.schema[c].Name
		if g, w := fragmentState(t, got.cols[c].main), fragmentState(t, want.cols[c].main); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: column %s main fragment\ngot:  %s\nwant: %s", what, name, brief(g), brief(w))
		}
		if g, w := fragmentState(t, got.cols[c].delta), fragmentState(t, want.cols[c].delta); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: column %s delta fragment\ngot:  %s\nwant: %s", what, name, brief(g), brief(w))
		}
	}
	if !reflect.DeepEqual(got.uniqueIdx, want.uniqueIdx) {
		t.Fatalf("%s: unique indexes differ from the reference", what)
	}
	if (got.zoneMaps == nil) != (want.zoneMaps == nil) {
		t.Fatalf("%s: zone maps present = %v, want %v", what, got.zoneMaps != nil, want.zoneMaps != nil)
	}
	for c := range got.zoneMaps {
		g, w := got.zoneMaps[c], want.zoneMaps[c]
		if g.rows != w.rows || !reflect.DeepEqual(nilIfEmpty(g.zones), nilIfEmpty(w.zones)) {
			t.Fatalf("%s: column %s zone map\ngot:  %d rows %s\nwant: %d rows %s",
				what, tbl.schema[c].Name, g.rows, brief(g.zones), w.rows, brief(w.zones))
		}
	}
}

// checkedMerge merges the delta and requires the store to equal the
// reference: every version re-inserted into main, zone maps from scratch.
func checkedMerge(t *testing.T, what string, tbl *Table) {
	t.Helper()
	d := tbl.currentData()
	sd := dumpData(d)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if tbl.currentData() != d {
		t.Fatalf("%s: merge replaced the data version", what)
	}
	want, _ := sd.rebuild(t, tbl, func(int) bool { return true }, len(sd.rows), true)
	requireSameData(t, what, tbl, d, want)
}

// checkedVacuum compacts at the DB's watermark and requires the
// successor, and the remap left on the retired version, to equal the
// reference.
func checkedVacuum(t *testing.T, what string, db *DB, tbl *Table) {
	t.Helper()
	d := tbl.currentData()
	sd := dumpData(d)
	w := db.Watermark()
	keep := func(r int) bool { return sd.end[r] > w }
	removed, err := tbl.Vacuum(endInfinity)
	if err != nil {
		t.Fatal(err)
	}
	want, remap := sd.rebuild(t, tbl, keep, sd.mainLen, sd.zoned)
	if removed != len(sd.rows)-len(want.begin) {
		t.Fatalf("%s: vacuum removed %d versions, reference %d", what, removed, len(sd.rows)-len(want.begin))
	}
	nd := tbl.currentData()
	if removed == 0 {
		if nd != d {
			t.Fatalf("%s: a vacuum with nothing to reclaim replaced the data version", what)
		}
		return
	}
	if d.next != nd || !reflect.DeepEqual(d.remap, remap) {
		t.Fatalf("%s: retired version's successor or remap differs from the reference", what)
	}
	requireSameData(t, what, tbl, nd, want)
}

// kernelDriver applies random committed changes to a kernelTable.
type kernelDriver struct {
	t      *testing.T
	rng    *rand.Rand
	db     *DB
	tbl    *Table
	nextID int64
}

func (k *kernelDriver) insert(n int) {
	k.t.Helper()
	tx := k.db.Begin()
	for i := 0; i < n; i++ {
		k.nextID++
		if err := tx.Insert(k.tbl, kernelRow(k.rng, k.nextID)); err != nil {
			k.t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		k.t.Fatal(err)
	}
}

// deleteShare deletes each visible row with probability p.
func (k *kernelDriver) deleteShare(p float64) {
	k.t.Helper()
	snap := k.tbl.SnapshotAt(k.db.CurrentTS())
	tx := k.db.Begin()
	for _, r := range snap.Rows() {
		if k.rng.Float64() < p {
			if err := tx.DeleteAt(snap, r); err != nil {
				k.t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		k.t.Fatal(err)
	}
}

// rollback commits a transaction that fails on a duplicate key after
// applying an insert, leaving a never-visible version behind.
func (k *kernelDriver) rollback() {
	k.t.Helper()
	if k.tbl.StatsSnapshot().Rows == 0 {
		return
	}
	snap := k.tbl.SnapshotAt(k.db.CurrentTS())
	dup := snap.Row(snap.Rows()[0])
	tx := k.db.Begin()
	k.nextID++
	for _, row := range []types.Row{kernelRow(k.rng, k.nextID), dup} {
		if err := tx.Insert(k.tbl, row); err != nil {
			k.t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		k.t.Fatal("duplicate key committed")
	}
}

// TestKernelEquivalenceBoundaries drives merge and compaction through
// empty, one-row and zone-block-boundary sizes on both sides of the
// main/delta split.
func TestKernelEquivalenceBoundaries(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, zoneBlockSize - 1, zoneBlockSize, zoneBlockSize + 1, 2*zoneBlockSize + 1}
	for _, mainRows := range sizes {
		for _, deltaRows := range []int{0, 1, 65, zoneBlockSize} {
			what := fmt.Sprintf("main=%d delta=%d", mainRows, deltaRows)
			db, tbl := kernelTable(t)
			k := &kernelDriver{t: t, rng: rand.New(rand.NewSource(int64(mainRows*7 + deltaRows))), db: db, tbl: tbl}
			k.insert(mainRows)
			checkedMerge(t, what+": first merge", tbl)
			k.insert(deltaRows)
			k.deleteShare(0.3)
			// Compact with the split in place, then fold the delta in and
			// compact what the second round of deletes leaves.
			checkedVacuum(t, what+": vacuum over main+delta", db, tbl)
			checkedMerge(t, what+": second merge", tbl)
			k.deleteShare(0.5)
			checkedVacuum(t, what+": vacuum over main", db, tbl)
			checkedMerge(t, what+": merge with nothing to move", tbl)
		}
	}
}

// TestKernelEquivalenceRandom interleaves inserts, deletes, rolled-back
// commits, merges and compactions (some under a lease that pins part of
// the garbage) and checks every pass against the reference.
func TestKernelEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db, tbl := kernelTable(t)
		k := &kernelDriver{t: t, rng: rand.New(rand.NewSource(seed)), db: db, tbl: tbl}
		var lease *ReadLease
		for step := 0; step < 60; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch n := k.rng.Intn(12); {
			case n < 4:
				k.insert([]int{1, 7, 200, zoneBlockSize, zoneBlockSize + 1}[k.rng.Intn(5)])
			case n < 6:
				k.deleteShare([]float64{0.02, 0.2, 0.9}[k.rng.Intn(3)])
			case n < 7:
				k.rollback()
			case n < 9:
				checkedMerge(t, what+": merge", tbl)
			case n < 11:
				checkedVacuum(t, what+": vacuum", db, tbl)
			case lease == nil:
				lease = db.AcquireRead()
			default:
				lease.Release()
				lease = nil
			}
		}
		lease.Release()
		checkedMerge(t, fmt.Sprintf("seed %d: final merge", seed), tbl)
		checkedVacuum(t, fmt.Sprintf("seed %d: final vacuum", seed), db, tbl)
	}
}

// reclaimable counts the versions a vacuum at the DB's watermark would
// remove, and the stored versions.
func reclaimable(db *DB, tbl *Table) (dead, stored int) {
	w := db.Watermark()
	d := tbl.currentData()
	for _, end := range d.end {
		if end <= w {
			dead++
		}
	}
	return dead, len(d.end)
}

func deleteKeys(t *testing.T, db *DB, tbl *Table, lo, hi int64) {
	t.Helper()
	for key := lo; key < hi; key++ {
		deleteKey(t, db, tbl, key)
	}
}

// TestBackgroundVacuumAmortized pins the amortization line: below it the
// background pass leaves the data version alone, at it the pass
// compacts, garbage a lease still pins never triggers a rebuild, and a
// direct vacuum compacts regardless.
func TestBackgroundVacuumAmortized(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 96)
	m := db.Metrics()

	// 11 dead of 96 stored: 11*8 < 96, below the line.
	deleteKeys(t, db, tbl, 0, 11)
	d := tbl.currentData()
	if n, err := db.VacuumAmortized(); err != nil || n != 0 {
		t.Fatalf("pass below the line: removed=%d err=%v", n, err)
	}
	if tbl.currentData() != d {
		t.Fatal("pass below the line replaced the data version")
	}
	if m.VacuumDeferred.Value() != 1 || m.Vacuums.Value() != 0 {
		t.Fatalf("below the line: vacuum_deferred=%d vacuums=%d, want 1 and 0", m.VacuumDeferred.Value(), m.Vacuums.Value())
	}

	// The twelfth dead version reaches it: 12*8 >= 96.
	deleteKey(t, db, tbl, 11)
	if n, err := db.VacuumAmortized(); err != nil || n != 12 {
		t.Fatalf("pass at the line: removed=%d err=%v, want 12", n, err)
	}
	if tbl.currentData() == d || m.Vacuums.Value() != 1 || m.VacuumHold.Count() != 1 {
		t.Fatalf("pass at the line did not compact: vacuums=%d holds=%d", m.Vacuums.Value(), m.VacuumHold.Count())
	}

	// Garbage far past the line, all of it pinned by a lease taken before
	// the deletes: tick after tick, no rebuild.
	lease := db.AcquireRead()
	deleteKeys(t, db, tbl, 12, 60)
	d = tbl.currentData()
	deferred := m.VacuumDeferred.Value()
	for tick := 0; tick < 3; tick++ {
		if n, err := db.VacuumAmortized(); err != nil || n != 0 {
			t.Fatalf("pass under a lease: removed=%d err=%v", n, err)
		}
	}
	if tbl.currentData() != d || m.Vacuums.Value() != 1 {
		t.Fatal("pinned garbage triggered a rebuild")
	}
	if got := m.VacuumDeferred.Value() - deferred; got != 3 {
		t.Fatalf("vacuum_deferred moved by %d over 3 pinned ticks, want 3", got)
	}
	lease.Release()
	if n, err := db.VacuumAmortized(); err != nil || n != 48 {
		t.Fatalf("pass after the lease: removed=%d err=%v, want 48", n, err)
	}

	// One dead version of 36: far below the line, and a direct call
	// compacts it all the same.
	deleteKey(t, db, tbl, 60)
	d = tbl.currentData()
	if n, err := db.VacuumAmortized(); err != nil || n != 0 || tbl.currentData() != d {
		t.Fatalf("background pass compacted one dead version of 36: removed=%d err=%v", n, err)
	}
	if n, err := db.Vacuum(); err != nil || n != 1 || tbl.currentData() == d {
		t.Fatalf("direct vacuum: removed=%d err=%v, want the one dead version compacted", n, err)
	}
}

// TestBackgroundVacuumBound checks the invariant the line buys: after
// any background pass, the versions a vacuum could reclaim are fewer
// than 1/amortizeShare of the stored ones.
func TestBackgroundVacuumBound(t *testing.T) {
	db, tbl := kernelTable(t)
	k := &kernelDriver{t: t, rng: rand.New(rand.NewSource(7)), db: db, tbl: tbl}
	var lease *ReadLease
	for step := 0; step < 200; step++ {
		switch n := k.rng.Intn(10); {
		case n < 4:
			k.insert(1 + k.rng.Intn(40))
		case n < 8:
			k.deleteShare(0.05)
		case lease == nil:
			lease = db.AcquireRead()
		default:
			lease.Release()
			lease = nil
		}
		if _, err := db.VacuumAmortized(); err != nil {
			t.Fatal(err)
		}
		if dead, stored := reclaimable(db, tbl); dead*amortizeShare >= stored && dead > 0 {
			t.Fatalf("step %d: %d of %d stored versions reclaimable after a background pass", step, dead, stored)
		}
	}
	lease.Release()
}

// TestMergeDeltaNothingToDo: a merged table with current zone maps is
// left alone — no merge counted, no lock-hold sample, no epoch bump —
// while both hooks still bracket the call.
func TestMergeDeltaNothingToDo(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 50)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	merges, holds, epoch := m.DeltaMerges.Value(), m.MergeHold.Count(), db.StatsEpoch()
	if merges != 1 || holds != 1 {
		t.Fatalf("first merge: delta_merges=%d hold samples=%d, want 1 and 1", merges, holds)
	}
	var before, after int
	db.SetTestHooks(&TestHooks{
		BeforeMerge: func(string) error { before++; return nil },
		AfterMerge:  func(string) { after++ },
	})
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if m.DeltaMerges.Value() != merges || m.MergeHold.Count() != holds || db.StatsEpoch() != epoch {
		t.Fatalf("merge with nothing to do: delta_merges %d→%d, hold samples %d→%d, stats epoch %d→%d",
			merges, m.DeltaMerges.Value(), holds, m.MergeHold.Count(), epoch, db.StatsEpoch())
	}
	if before != 1 || after != 1 {
		t.Fatalf("hooks ran before=%d after=%d times, want 1 and 1", before, after)
	}
}

// TestStatsEpochMovesOnlyOnMaterialChange: maintenance bumps the stats
// epoch when the statistics it installs moved to another order of
// magnitude, not because a pass ran.
func TestStatsEpochMovesOnlyOnMaterialChange(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 40)
	if err := tbl.MergeDelta(); err != nil { // first statistics: material
		t.Fatal(err)
	}
	refreshes := db.Metrics().StatsRefreshes.Value()

	// Churn past the line inside one bucket: 40 → 50 rows, the string
	// column's 40 → 50 distinct values. Refreshed, epoch untouched.
	seedKV(t, db, tbl, 40, 10)
	epoch := db.StatsEpoch()
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().StatsRefreshes.Value() != refreshes+1 {
		t.Fatal("10 inserts on 40 rows did not make a refresh due")
	}
	if db.StatsEpoch() != epoch {
		t.Fatal("a refresh within the same buckets bumped the stats epoch")
	}
	// A compaction that changes no statistic's bucket: same.
	deleteKeys(t, db, tbl, 0, 10)
	epoch = db.StatsEpoch()
	if n, err := db.Vacuum(); err != nil || n != 10 {
		t.Fatalf("vacuum: removed=%d err=%v", n, err)
	}
	if db.StatsEpoch() != epoch {
		t.Fatal("a compaction within the same buckets bumped the stats epoch")
	}
	// Below the line nothing is recomputed: one insert on 40 rows.
	seedKV(t, db, tbl, 50, 1)
	refreshes = db.Metrics().StatsRefreshes.Value()
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().StatsRefreshes.Value() != refreshes {
		t.Fatal("one insert on 40 rows refreshed the statistics")
	}
	// 41 → 141 rows crosses a bucket (the commit bumps for the row
	// count); the merge's refresh then finds the string column's
	// distinct count in a new bucket and bumps again.
	seedKV(t, db, tbl, 51, 100)
	epoch = db.StatsEpoch()
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if db.StatsEpoch() == epoch {
		t.Fatal("statistics that moved an order of magnitude did not bump the stats epoch")
	}
}
