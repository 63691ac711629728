package exec

import (
	"fmt"
	"testing"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// buildEnv creates a two-table storage layer and a plan context for
// executor-level tests.
func buildEnv(t *testing.T) (*storage.DB, *plan.Context, *plan.Scan, *plan.Scan) {
	t.Helper()
	db := storage.NewDB()
	ctx := plan.NewContext()

	lt, err := db.CreateTable("l", types.Schema{
		{Name: "id", Type: types.TInt, NotNull: true},
		{Name: "ref", Type: types.TInt},
		{Name: "v", Type: types.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := db.CreateTable("r", types.Schema{
		{Name: "id", Type: types.TInt, NotNull: true},
		{Name: "name", Type: types.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = lt
	_ = rt
	lRows := []types.Row{
		{types.NewInt(1), types.NewInt(10), types.NewString("a")},
		{types.NewInt(2), types.NewInt(20), types.NewString("b")},
		{types.NewInt(3), types.NewNull(types.TInt), types.NewString("c")},
		{types.NewInt(4), types.NewInt(99), types.NewString("d")}, // dangling ref
	}
	rRows := []types.Row{
		{types.NewInt(10), types.NewString("ten")},
		{types.NewInt(20), types.NewString("twenty")},
		{types.NewInt(30), types.NewString("thirty")},
	}
	if err := db.InsertRows("l", lRows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", rRows); err != nil {
		t.Fatal(err)
	}

	mkScan := func(name string, nCols int) *plan.Scan {
		tbl, _ := db.Table(name)
		s := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: tbl.Schema()}, Instance: ctx.NewInstance()}
		for ord := 0; ord < nCols; ord++ {
			s.Cols = append(s.Cols, ctx.NewColumn(fmt.Sprintf("%s%d", name, ord), tbl.Schema()[ord].Type))
			s.Ords = append(s.Ords, ord)
		}
		return s
	}
	return db, ctx, mkScan("l", 3), mkScan("r", 2)
}

func runAll(t *testing.T, b *Builder, n plan.Node) []types.Row {
	t.Helper()
	rows, err := b.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestHashJoinInnerAndLeftOuter(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())

	cond := &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: rs.Cols[0], Typ: types.TInt},
		Typ: types.TBool}

	inner := &plan.Join{Kind: plan.InnerJoin, Left: ls, Right: rs, Cond: cond}
	rows := runAll(t, b, inner)
	if len(rows) != 2 {
		t.Fatalf("inner join rows = %d", len(rows))
	}

	outer := &plan.Join{Kind: plan.LeftOuterJoin, Left: ls, Right: rs, Cond: cond}
	rows = runAll(t, b, outer)
	if len(rows) != 4 {
		t.Fatalf("left outer rows = %d", len(rows))
	}
	nullExtended := 0
	for _, r := range rows {
		if r[3].IsNull() && r[4].IsNull() {
			nullExtended++
		}
	}
	if nullExtended != 2 { // NULL ref and dangling ref
		t.Fatalf("null-extended rows = %d", nullExtended)
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	eq := &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: rs.Cols[0], Typ: types.TInt},
		Typ: types.TBool}
	residual := &plan.Bin{Op: "<>",
		L:   &plan.ColRef{ID: rs.Cols[1], Typ: types.TString},
		R:   &plan.Const{Val: types.NewString("ten")},
		Typ: types.TBool}
	cond := &plan.Bin{Op: "AND", L: eq, R: residual, Typ: types.TBool}
	outer := &plan.Join{Kind: plan.LeftOuterJoin, Left: ls, Right: rs, Cond: cond}
	rows := runAll(t, b, outer)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// id=1 matched r.id=10 but residual fails → NULL extension.
	for _, r := range rows {
		if r[0].Int() == 1 && !r[3].IsNull() {
			t.Fatalf("residual not applied: %v", r)
		}
	}
}

func TestNestedLoopFallback(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	// Non-equi condition: l.ref < r.id
	cond := &plan.Bin{Op: "<",
		L:   &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: rs.Cols[0], Typ: types.TInt},
		Typ: types.TBool}
	inner := &plan.Join{Kind: plan.InnerJoin, Left: ls, Right: rs, Cond: cond}
	rows := runAll(t, b, inner)
	// ref=10 < {20,30} → 2; ref=20 < {30} → 1; NULL → 0; 99 → 0.
	if len(rows) != 3 {
		t.Fatalf("nested loop rows = %d", len(rows))
	}
}

// TestBuildLeftJoinEquivalence: the build-left hash join variant must
// produce the same multiset as the standard variant, including residual
// predicates and NULL extension.
func TestBuildLeftJoinEquivalence(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	eq := &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: rs.Cols[0], Typ: types.TInt},
		Typ: types.TBool}
	residual := &plan.Bin{Op: "<>",
		L:   &plan.ColRef{ID: rs.Cols[1], Typ: types.TString},
		R:   &plan.Const{Val: types.NewString("twenty")},
		Typ: types.TBool}
	cond := &plan.Bin{Op: "AND", L: eq, R: residual, Typ: types.TBool}

	// Wrap the left side in a generous limit so the build-left variant is
	// selected (bounded side heuristic).
	limited := &plan.Limit{Input: ls, Count: 100}
	outer := &plan.Join{Kind: plan.LeftOuterJoin, Left: limited, Right: rs, Cond: cond}
	it, err := b.Build(outer)
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := it.(*joinIter); !ok || !j.buildLeft {
		t.Fatalf("expected a join building left, got %T %+v", it, it)
	}
	gotRows := runAll(t, b, outer)

	// Reference: the standard variant without the limit trigger.
	ref := &plan.Join{Kind: plan.LeftOuterJoin, Left: ls, Right: rs, Cond: cond}
	wantRows := runAll(t, b, ref)
	key := func(rows []types.Row) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			s := ""
			for _, v := range r {
				s += v.Key() + "|"
			}
			m[s]++
		}
		return m
	}
	got, want := key(gotRows), key(wantRows)
	if len(got) != len(want) {
		t.Fatalf("row multisets differ: %d vs %d distinct", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q: got %d, want %d", k, got[k], n)
		}
	}
	// Inner-mode build-left: unmatched tail suppressed.
	innerJ := &plan.Join{Kind: plan.InnerJoin, Left: &plan.Limit{Input: ls, Count: 100}, Right: rs, Cond: eq}
	rows := runAll(t, b, innerJ)
	if len(rows) != 2 {
		t.Fatalf("inner build-left rows = %d", len(rows))
	}
}

func TestCrossJoin(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	cross := &plan.Join{Kind: plan.CrossJoin, Left: ls, Right: rs}
	rows := runAll(t, b, cross)
	if len(rows) != 12 {
		t.Fatalf("cross join rows = %d", len(rows))
	}
}

func TestGroupByDistinctAggregates(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	// Add duplicate refs by unioning the scan with itself.
	u := &plan.UnionAll{Children: []plan.Node{ls, cloneScan(ctx, ls)}}
	for range ls.Cols {
		u.Cols = append(u.Cols, ctx.NewColumn("u", types.TInt))
	}
	gb := &plan.GroupBy{
		Input: u,
		Aggs: []plan.AggCol{
			{ID: ctx.NewColumn("c", types.TInt), Op: plan.AggCount, Star: true},
			{ID: ctx.NewColumn("cd", types.TInt), Op: plan.AggCount, Distinct: true,
				Arg: &plan.ColRef{ID: u.Cols[1], Typ: types.TInt}},
			{ID: ctx.NewColumn("mx", types.TInt), Op: plan.AggMax,
				Arg: &plan.ColRef{ID: u.Cols[0], Typ: types.TInt}},
			{ID: ctx.NewColumn("mn", types.TInt), Op: plan.AggMin,
				Arg: &plan.ColRef{ID: u.Cols[0], Typ: types.TInt}},
			{ID: ctx.NewColumn("av", types.TFloat), Op: plan.AggAvg,
				Arg: &plan.ColRef{ID: u.Cols[0], Typ: types.TInt}},
		},
	}
	rows := runAll(t, b, gb)
	if len(rows) != 1 {
		t.Fatalf("scalar agg rows = %d", len(rows))
	}
	r := rows[0]
	if r[0].Int() != 8 {
		t.Errorf("count(*) = %v", r[0])
	}
	if r[1].Int() != 3 { // distinct refs: 10, 20, 99 (NULL excluded)
		t.Errorf("count(distinct ref) = %v", r[1])
	}
	if r[2].Int() != 4 || r[3].Int() != 1 {
		t.Errorf("min/max = %v/%v", r[3], r[2])
	}
	if r[4].Float() != 2.5 {
		t.Errorf("avg = %v", r[4])
	}
}

func cloneScan(ctx *plan.Context, s *plan.Scan) *plan.Scan {
	out := &plan.Scan{Info: s.Info, Instance: ctx.NewInstance()}
	for i, ord := range s.Ords {
		out.Cols = append(out.Cols, ctx.NewColumn(ctx.Name(s.Cols[i]), ctx.Type(s.Cols[i])))
		out.Ords = append(out.Ords, ord)
	}
	return out
}

func TestSortNullsFirstAndDesc(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	sorted := &plan.Sort{Input: ls, Keys: []plan.SortKey{{Col: ls.Cols[1]}}}
	rows := runAll(t, b, sorted)
	if !rows[0][1].IsNull() {
		t.Fatalf("NULL should sort first asc: %v", rows)
	}
	sortedDesc := &plan.Sort{Input: ls, Keys: []plan.SortKey{{Col: ls.Cols[1], Desc: true}}}
	rows = runAll(t, b, sortedDesc)
	if !rows[len(rows)-1][1].IsNull() {
		t.Fatalf("NULL should sort last desc: %v", rows)
	}
	if rows[0][1].Int() != 99 {
		t.Fatalf("desc first = %v", rows[0][1])
	}
}

func TestLimitOffset(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	lim := &plan.Limit{Input: ls, Count: 2, Offset: 1}
	rows := runAll(t, b, lim)
	if len(rows) != 2 || rows[0][0].Int() != 2 {
		t.Fatalf("limit/offset rows = %v", rows)
	}
	unlimited := &plan.Limit{Input: ls, Count: -1, Offset: 3}
	rows = runAll(t, b, unlimited)
	if len(rows) != 1 {
		t.Fatalf("offset-only rows = %d", len(rows))
	}
}

func TestDistinctIter(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	// Project to v-col only isn't available; distinct over full rows of
	// a union of the scan with itself halves the rows.
	u := &plan.UnionAll{Children: []plan.Node{ls, cloneScan(ctx, ls)}}
	for range ls.Cols {
		u.Cols = append(u.Cols, ctx.NewColumn("u", types.TInt))
	}
	d := &plan.Distinct{Input: u}
	rows := runAll(t, b, d)
	if len(rows) != 4 {
		t.Fatalf("distinct rows = %d", len(rows))
	}
}

func TestEmptyScanZeroColumns(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)
	b := NewBuilder(ctx, db, db.CurrentTS())
	// A scan with zero columns still produces one (empty) row per
	// visible table row — the shape count(*) plans rely on.
	ls.Cols, ls.Ords = nil, nil
	gb := &plan.GroupBy{Input: ls, Aggs: []plan.AggCol{
		{ID: ctx.NewColumn("c", types.TInt), Op: plan.AggCount, Star: true}}}
	rows := runAll(t, b, gb)
	if rows[0][0].Int() != 4 {
		t.Fatalf("count over zero-column scan = %v", rows[0][0])
	}
}
