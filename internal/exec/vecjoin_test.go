package exec

import (
	"fmt"
	"testing"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// buildFilterEnv loads a probe table p(id, k, s) and a build table
// b(k, s, c, n) whose rows cover the build-filter cases: a NULL build
// key, a NULL filter column, a 1:n key (20) whose matches pass and fail
// differently, an unmatched probe row (99), a NULL probe key, and an
// unmatched build row (50) for the build-left tail.
func buildFilterEnv(t *testing.T) (*storage.DB, *plan.Context, func(string) *plan.Scan) {
	t.Helper()
	db := storage.NewDB()
	ctx := plan.NewContext()
	mk := func(name string, schema types.Schema, rows []types.Row) {
		if _, err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	i, s, null := types.NewInt, types.NewString, types.NewNull
	mk("p", types.Schema{{Name: "id", Type: types.TInt}, {Name: "k", Type: types.TInt}, {Name: "s", Type: types.TString}}, []types.Row{
		{i(1), i(10), s("a")},
		{i(2), i(20), s("b")},
		{i(3), null(types.TInt), null(types.TString)},
		{i(4), i(99), s("zz")},
		{i(5), i(30), s("c")},
		{i(6), i(10), s("a")},
		{i(7), i(40), s("d")},
	})
	mk("b", types.Schema{{Name: "k", Type: types.TInt}, {Name: "s", Type: types.TString}, {Name: "c", Type: types.TString}, {Name: "n", Type: types.TInt}}, []types.Row{
		{i(10), s("a"), s("x"), i(1)},
		{i(20), s("b"), s("y"), i(2)},
		{i(20), s("b"), s("x"), i(3)},
		{i(30), s("c"), null(types.TString), i(4)},
		{null(types.TInt), null(types.TString), s("x"), i(5)},
		{i(40), s("d"), s("y"), i(6)},
		{i(50), s("e"), s("x"), i(7)},
	})
	scan := func(name string) *plan.Scan {
		tbl, _ := db.Table(name)
		sc := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: tbl.Schema()}, Instance: ctx.NewInstance()}
		for ord, col := range tbl.Schema() {
			sc.Cols = append(sc.Cols, ctx.NewColumn(fmt.Sprintf("%s.%s", name, col.Name), col.Type))
			sc.Ords = append(sc.Ords, ord)
		}
		return sc
	}
	return db, ctx, scan
}

// builtJoin builds n (a Filter over a join) with the batch executor and
// returns the join source and the pipeline over it.
func builtJoin(t *testing.T, ctx *plan.Context, db *storage.DB, n plan.Node) (*joinSource, *vecSpec) {
	t.Helper()
	b := NewBuilder(ctx, db, db.CurrentTS())
	b.SetVectorize(2)
	it, err := b.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	vi, ok := it.(*vecRowsIter)
	if !ok {
		t.Fatalf("built %T, want one batch pipeline", it)
	}
	js, ok := vi.spec.src.(*joinSource)
	if !ok {
		t.Fatalf("pipeline source is %T, want a join", vi.spec.src)
	}
	return js, vi.spec
}

// stagedConjuncts counts the filter conjuncts left in a pipeline's stages.
func stagedConjuncts(s *vecSpec) int {
	n := 0
	for _, st := range s.stages {
		n += len(st.filt)
	}
	return n
}

// TestVecBuildFilterFoldMatchesRowPath is the build-filter battery: a
// Filter over an inner or left outer join, building either side, on an
// integer or a string key, with conjuncts over the build side, the probe
// side, or both. Every shape returns the row executor's rows at batch
// sizes 1, 2 and 1024, and exactly the conjuncts that read only build
// columns fold into the join — none under a LEFT OUTER join that builds
// left, whose build side is not the NULL-supplying one.
func TestVecBuildFilterFoldMatchesRowPath(t *testing.T) {
	db, ctx, scan := buildFilterEnv(t)
	ps, bs := scan("p"), scan("b")
	col := func(s *plan.Scan, i int) *plan.ColRef {
		return &plan.ColRef{ID: s.Cols[i], Typ: s.Info.Schema[i].Type}
	}
	str := func(v string) plan.Expr { return &plan.Const{Val: types.NewString(v)} }
	num := func(v int64) plan.Expr { return &plan.Const{Val: types.NewInt(v)} }
	bin := func(op string, l, r plan.Expr) plan.Expr { return &plan.Bin{Op: op, L: l, R: r, Typ: types.TBool} }
	isNull := func(e plan.Expr, not bool) plan.Expr { return &plan.IsNullExpr{E: e, Not: not} }
	in := func(e plan.Expr, vals ...string) plan.Expr {
		list := make([]plan.Expr, len(vals))
		for k, v := range vals {
			list[k] = str(v)
		}
		return &plan.InListExpr{E: e, List: list}
	}
	pID, pS := col(ps, 0), col(ps, 2)
	bC, bN := col(bs, 2), col(bs, 3)

	// side says which join input each conjunct reads: 'L' (p), 'R' (b),
	// or 'M' (both, never folded).
	filters := []struct {
		name  string
		conj  []plan.Expr
		sides string
	}{
		{"eq-null-ext-fails", []plan.Expr{bin("=", bC, str("x"))}, "R"},
		{"or-is-null-ext-passes", []plan.Expr{bin("OR", isNull(bC, false), bin("=", bC, str("x")))}, "R"},
		{"is-not-null", []plan.Expr{isNull(bC, true)}, "R"},
		{"in-and-int", []plan.Expr{in(bC, "x", "y"), bin(">", bN, num(1))}, "RR"},
		{"int-ne-1n-split", []plan.Expr{bin("<>", bN, num(3))}, "R"},
		{"mixed-stays", []plan.Expr{bin("=", bC, str("x")), bin("<", pID, bN)}, "RM"},
		{"probe-and-build", []plan.Expr{bin("<>", pS, str("b")), isNull(pID, true), bin("OR", isNull(bC, false), bin("=", bC, str("y")))}, "LLR"},
	}
	keys := []struct {
		name string
		l, r int
	}{{"int-key", 1, 0}, {"str-key", 2, 1}}
	for _, key := range keys {
		cond := bin("=", col(ps, key.l), col(bs, key.r))
		for _, kind := range []plan.JoinKind{plan.InnerJoin, plan.LeftOuterJoin} {
			for _, buildLeft := range []bool{false, true} {
				for _, f := range filters {
					name := fmt.Sprintf("%s/%v/buildLeft=%v/%s", key.name, kind, buildLeft, f.name)
					join := &plan.Join{Kind: kind, Left: ps, Right: bs, Cond: cond, BuildLeft: buildLeft}
					n := &plan.Filter{Input: join, Cond: plan.AndAll(f.conj)}
					for _, size := range []int{1, 2, 1024} {
						runVecAndRow(t, ctx, db, n, size)
					}
					buildSide := byte('R')
					if buildLeft {
						buildSide = 'L'
					}
					want := 0
					for k := range f.sides {
						if f.sides[k] == buildSide && (kind == plan.InnerJoin || !buildLeft) {
							want++
						}
					}
					js, spec := builtJoin(t, ctx, db, n)
					if len(js.filt) != want || stagedConjuncts(spec) != len(f.conj)-want {
						t.Errorf("%s: %d conjuncts folded, %d staged; want %d folded of %d",
							name, len(js.filt), stagedConjuncts(spec), want, len(f.conj))
					}
				}
			}
		}
	}
}

// TestVecBuildFilterJoinOverJoin folds a DAC-style filter into each of
// two stacked left outer joins (the shape of Figure 4's browser): both
// folds happen, the rows are the row executor's, and a count(*) over
// the stack gathers no build column at all.
func TestVecBuildFilterJoinOverJoin(t *testing.T) {
	db, ctx, scan := buildFilterEnv(t)
	ps, b1, b2 := scan("p"), scan("b"), scan("b")
	col := func(s *plan.Scan, i int) *plan.ColRef {
		return &plan.ColRef{ID: s.Cols[i], Typ: s.Info.Schema[i].Type}
	}
	dac := func(s *plan.Scan, v string) plan.Expr {
		c := col(s, 2)
		return &plan.Bin{Op: "OR", Typ: types.TBool,
			L: &plan.InListExpr{E: c, List: []plan.Expr{&plan.Const{Val: types.NewString(v)}}},
			R: &plan.IsNullExpr{E: c}}
	}
	eq := func(l, r *plan.ColRef) plan.Expr { return &plan.Bin{Op: "=", L: l, R: r, Typ: types.TBool} }
	inner := &plan.Filter{Cond: dac(b1, "x"),
		Input: &plan.Join{Kind: plan.LeftOuterJoin, Left: ps, Right: b1, Cond: eq(col(ps, 1), col(b1, 0))}}
	outer := &plan.Filter{Cond: dac(b2, "y"),
		Input: &plan.Join{Kind: plan.LeftOuterJoin, Left: inner, Right: b2, Cond: eq(col(ps, 2), col(b2, 1))}}
	for _, size := range []int{1, 2, 1024} {
		runVecAndRow(t, ctx, db, outer, size)
	}
	js, _ := builtJoin(t, ctx, db, outer)
	nested, ok := js.probe.src.(*joinSource)
	if !ok {
		t.Fatalf("outer join probes %T, want the nested join", js.probe.src)
	}
	if len(js.filt) != 1 || len(nested.filt) != 1 || stagedConjuncts(js.probe) != 0 {
		t.Fatalf("folded %d (outer) and %d (nested), %d left staged; want 1, 1, 0",
			len(js.filt), len(nested.filt), stagedConjuncts(js.probe))
	}

	count := &plan.GroupBy{Input: outer, Aggs: []plan.AggCol{{ID: ctx.NewColumn("n", types.TInt), Op: plan.AggCount, Star: true}}}
	for _, size := range []int{1, 2, 1024} {
		runVecAndRow(t, ctx, db, count, size)
	}
	b := NewBuilder(ctx, db, db.CurrentTS())
	b.SetVectorize(0)
	it, err := b.Build(count)
	if err != nil {
		t.Fatal(err)
	}
	top := it.(*vecRowsIter).spec.src.(*groupSource).va.spec.src.(*joinSource)
	for _, j := range []*joinSource{top, top.probe.src.(*joinSource)} {
		for k := range j.build.proj {
			if j.keep[j.buildOff+k] {
				t.Errorf("count(*) gathers build column %d", k)
			}
		}
	}
}

// TestVecProbeMemoAcrossDeltaMerge merges a delta between two probe
// batches of one scan. The merge re-encodes the probe key column: before
// it, combined code 1 is the delta's "a" (main holds only "a", code 0);
// after it the delta is gone and code 1 is "x". A probe memo that kept
// its entries across the change of view would join the "x" rows to "a"'s
// build row. The join must return the row executor's rows, and it
// depends on DictView.Same telling the two views apart.
func TestVecProbeMemoAcrossDeltaMerge(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	schema := types.Schema{{Name: "id", Type: types.TInt}, {Name: "s", Type: types.TString}}
	for _, name := range []string{"pm", "bm"} {
		if _, err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	row := func(id int64, s string) types.Row { return types.Row{types.NewInt(id), types.NewString(s)} }
	if err := db.InsertRows("bm", []types.Row{row(1, "a"), row(2, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("pm", []types.Row{row(10, "a")}); err != nil {
		t.Fatal(err)
	}
	ptbl, _ := db.Table("pm")
	if err := ptbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	// Delta dictionary ["a", "x"]: combined codes a=1, x=2 over main ["a"].
	if err := db.InsertRows("pm", []types.Row{row(11, "a"), row(12, "x"), row(13, "x"), row(14, "a")}); err != nil {
		t.Fatal(err)
	}
	scan := func(name string) *plan.Scan {
		s := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: schema}, Instance: ctx.NewInstance(), Ords: []int{0, 1}}
		s.Cols = []types.ColumnID{ctx.NewColumn(name+".id", types.TInt), ctx.NewColumn(name+".s", types.TString)}
		return s
	}
	ps, bs := scan("pm"), scan("bm")
	join := &plan.Join{Kind: plan.InnerJoin, Left: ps, Right: bs, Cond: &plan.Bin{Op: "=", Typ: types.TBool,
		L: &plan.ColRef{ID: ps.Cols[1], Typ: types.TString}, R: &plan.ColRef{ID: bs.Cols[1], Typ: types.TString}}}

	want, err := NewBuilder(ctx, db, db.CurrentTS()).Run(join)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(ctx, db, db.CurrentTS())
	b.SetVectorize(2)
	it, err := b.Build(join)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []types.Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
		if len(got) == 2 { // the first probe batch (ids 10, 11) is drained
			if err := ptbl.MergeDelta(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows across a mid-scan merge:\n got %v\nwant %v", got, want)
	}
}

// TestVecBuildInternsComputedStrings builds a join over a computed
// string column (a CASE with two results over 2 000 build rows), once as
// a payload column and once as the join key a consumer also reads. The
// computed column arrives as plain strings, not storage codes, and the
// build must still hold each distinct string once and meter it once, so
// a large build over a few distinct values stays inside its budget.
func TestVecBuildInternsComputedStrings(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	schema := types.Schema{{Name: "k", Type: types.TInt}, {Name: "n", Type: types.TInt}}
	for _, name := range []string{"cp", "cb"} {
		if _, err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	const nbuild = 2000
	var rows []types.Row
	for i := range nbuild {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))})
	}
	if err := db.InsertRows("cb", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("cp", []types.Row{{types.NewInt(1), types.NewInt(0)}, {types.NewInt(1500), types.NewInt(0)}}); err != nil {
		t.Fatal(err)
	}
	scan := func(name string) *plan.Scan {
		s := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: schema}, Instance: ctx.NewInstance(), Ords: []int{0, 1}}
		s.Cols = []types.ColumnID{ctx.NewColumn(name+".k", types.TInt), ctx.NewColumn(name+".n", types.TInt)}
		return s
	}
	col := func(s *plan.Scan, i int) *plan.ColRef { return &plan.ColRef{ID: s.Cols[i], Typ: types.TInt} }
	str := func(v string) plan.Expr { return &plan.Const{Val: types.NewString(v)} }
	// banded projects k and a CASE band over n: "high" above nbuild/2.
	banded := func(s *plan.Scan) (*plan.Project, *plan.ColRef) {
		band := ctx.NewColumn("band", types.TString)
		return &plan.Project{Input: s, Cols: []plan.ProjCol{
			{ID: s.Cols[0], Expr: col(s, 0)},
			{ID: band, Expr: &plan.Case{Typ: types.TString, Else: str("low"), Whens: []plan.CaseArm{{
				Cond: &plan.Bin{Op: ">", Typ: types.TBool, L: col(s, 1), R: &plan.Const{Val: types.NewInt(nbuild / 2)}},
				Then: str("high")}}}},
		}}, &plan.ColRef{ID: band, Typ: types.TString}
	}
	strBytes := int64(len("high") + len("low") + 2*(16+keyEntryBytes))
	for _, tc := range []struct {
		name   string
		strKey bool
		// Per build row: the string's code and the row index (4 bytes
		// each; no consumer reads the integer key column, so it is not
		// stored), plus the index entry of each distinct key; the two
		// distinct strings once each, with their interning entries.
		want int64
	}{
		{"payload", false, nbuild*(8+keyEntryBytes) + strBytes},
		{"key", true, nbuild*8 + strBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps, bs := scan("cp"), scan("cb")
			build, band := banded(bs)
			var probe plan.Node = ps
			var cond plan.Expr = &plan.Bin{Op: "=", Typ: types.TBool, L: col(ps, 0), R: col(bs, 0)}
			if tc.strKey {
				var pband *plan.ColRef
				probe, pband = banded(ps)
				cond = &plan.Bin{Op: "=", Typ: types.TBool, L: pband, R: band}
			}
			join := &plan.Project{
				Input: &plan.Join{Kind: plan.InnerJoin, Left: probe, Right: build, Cond: cond},
				Cols:  []plan.ProjCol{{ID: ps.Cols[0], Expr: col(ps, 0)}, {ID: band.ID, Expr: band}},
			}
			for _, size := range []int{1, 2, 1024} {
				runVecAndRow(t, ctx, db, join, size)
			}

			b := NewBuilder(ctx, db, db.CurrentTS())
			b.SetVectorize(1024)
			it, err := b.Build(join)
			if err != nil {
				t.Fatal(err)
			}
			js, ok := it.(*vecRowsIter).spec.src.(*joinSource)
			if !ok {
				t.Fatalf("pipeline source is %T, want a join", it.(*vecRowsIter).spec.src)
			}
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			var strCols int
			for k := range js.cols {
				if c := &js.cols[k]; c.vec.Typ == types.TString {
					strCols++
					if len(c.dict) != 2 {
						t.Errorf("build column %d holds %d strings for 2 distinct values over %d rows", k, len(c.dict), nbuild)
					}
				}
			}
			if strCols != 1 {
				t.Fatalf("build stores %d string columns, want the computed one", strCols)
			}
			if got := js.acct.bytes(); got != tc.want {
				t.Errorf("build metered %d bytes, want %d", got, tc.want)
			}
		})
	}
}
