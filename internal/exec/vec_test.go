package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// runVecAndRow builds the same plan twice — batch executor on, then off —
// and requires identical ordered rows.
func runVecAndRow(t *testing.T, ctx *plan.Context, db *storage.DB, n plan.Node, batchSize int) []types.Row {
	t.Helper()

	vb := NewBuilder(ctx, db, db.CurrentTS())
	vb.SetVectorize(batchSize)
	vecRows, err := vb.Run(n)
	if err != nil {
		t.Fatalf("vectorized run: %v", err)
	}

	rb := NewBuilder(ctx, db, db.CurrentTS())
	rowRows, err := rb.Run(n)
	if err != nil {
		t.Fatalf("row run: %v", err)
	}

	if len(vecRows) != len(rowRows) {
		t.Fatalf("vec %d rows, row %d rows", len(vecRows), len(rowRows))
	}
	for i := range rowRows {
		if len(vecRows[i]) != len(rowRows[i]) {
			t.Fatalf("row %d: width %d vs %d", i, len(vecRows[i]), len(rowRows[i]))
		}
		for c := range rowRows[i] {
			v, w := vecRows[i][c], rowRows[i][c]
			if v.IsNull() != w.IsNull() || (!v.IsNull() && !types.Equal(v, w)) {
				t.Fatalf("row %d col %d: vec %v, row %v", i, c, v, w)
			}
		}
	}
	return vecRows
}

// TestVecPipelineMatchesRowPath runs scan/filter shapes against both
// executors at several batch sizes, including ones that don't divide the
// row count.
func TestVecPipelineMatchesRowPath(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)

	filter := &plan.Filter{Input: ls, Cond: &plan.Bin{Op: ">",
		L:   &plan.ColRef{ID: ls.Cols[0], Typ: types.TInt},
		R:   &plan.Const{Val: types.NewInt(1)},
		Typ: types.TBool}}

	for _, bs := range []int{1, 2, 3, 1024} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			rows := runVecAndRow(t, ctx, db, filter, bs)
			if len(rows) != 3 {
				t.Fatalf("filtered rows = %d, want 3", len(rows))
			}
		})
	}
}

// TestVecStringFilterUsesDictCodes checks dictionary-column equality
// through the batch path on a table whose delta re-encodes codes, and the
// string comparison kernel against the row evaluator (checkDictKernel).
func TestVecStringFilterUsesDictCodes(t *testing.T) {
	db, ctx, ls, _ := buildEnv(t)
	// Push extra rows into the delta so the same strings carry rebased
	// codes (buildEnv's rows may sit in the delta too; merging first
	// forces a main/delta split).
	tbl, _ := db.Table("l")
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("l", []types.Row{
		{types.NewInt(5), types.NewInt(10), types.NewString("a")},
		{types.NewInt(6), types.NewInt(20), types.NewString("zz")},
	}); err != nil {
		t.Fatal(err)
	}

	eq := &plan.Filter{Input: ls, Cond: &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: ls.Cols[2], Typ: types.TString},
		R:   &plan.Const{Val: types.NewString("a")},
		Typ: types.TBool}}
	rows := runVecAndRow(t, ctx, db, eq, 2)
	if len(rows) != 2 { // id 1 (main) and id 5 (delta)
		t.Fatalf("string filter rows = %d, want 2", len(rows))
	}

	// The literal-comparison kernel decides once per code, with the
	// literal on either side.
	col := &plan.ColRef{ID: 0, Typ: types.TString}
	for _, op := range []string{"=", "<>", "<", ">="} {
		lit := &plan.Const{Val: types.NewString("b")}
		checkDictKernel(t, "col"+op+"lit", &plan.Bin{Op: op, L: col, R: lit, Typ: types.TBool})
		checkDictKernel(t, "lit"+op+"col", &plan.Bin{Op: op, L: lit, R: col, Typ: types.TBool})
	}
}

// dictVec builds a dictionary-coded string vector; code -1 is a NULL row.
func dictVec(main, delta []string, codes []int32) types.Vec {
	var v types.Vec
	v.Reset(types.TString, len(codes))
	v.Dict = types.NewDictView(main, delta)
	for i, c := range codes {
		if c < 0 {
			v.SetNull(i)
			c = 0
		}
		v.Codes[i] = c
	}
	return v
}

// strsOf materializes a dictionary vector's strings, as a computed
// projection would.
func strsOf(d *types.Vec) types.Vec {
	var v types.Vec
	v.ResetStrings(len(d.Codes))
	for i := range d.Codes {
		if d.NullAt(i) {
			v.SetNull(i)
			continue
		}
		v.Strs[i] = d.StrAt(i)
	}
	return v
}

// checkDictKernel compiles a predicate over one string column (ID 0)
// into its batch kernel, the single memo of which is the kernel's code
// memo, and runs it as a filter conjunct over two batches whose codes
// resolve against different dictionaries — repeated codes, NULL rows,
// and in the second batch the same strings under other codes. Each
// batch runs twice: dictionary-coded, where the kernel must decide once
// per distinct code per batch (one current memo entry per distinct
// non-NULL code), and as a computed (Strs) vector, which must never
// touch the memo. Both must keep exactly the rows the row evaluator
// finds TRUE.
func checkDictKernel(t *testing.T, name string, expr plan.Expr) {
	t.Helper()
	ref, err := Compile(expr, map[types.ColumnID]int{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	f := &vecFrag{spec: newVecSpec(nil, 1), cols: []types.ColumnID{0}}
	kernel, _, ok := f.compileVecExpr(expr)
	if !ok || f.spec.nMemos != 1 {
		t.Fatalf("%s: compiled=%v with %d code memos, want one", name, ok, f.spec.nMemos)
	}
	batches := []types.Vec{
		dictVec([]string{"a", "b", "c"}, []string{"d"}, []int32{0, 1, 2, 3, -1, 0, 2, 2, -1, 1}),
		// Same strings, other codes: "c" is 0 now, "a" a delta code.
		dictVec([]string{"c", "d"}, []string{"b", "a"}, []int32{3, 0, -1, 1, 2, 3, 0}),
	}
	dictSc, strsSc := newVecScratch(f.spec), newVecScratch(f.spec)
	for bi := range batches {
		dv := &batches[bi]
		var want, all []int32
		for i := range dv.Codes {
			all = append(all, int32(i))
			v, err := ref(types.Row{dv.Value(i)})
			if err != nil {
				t.Fatal(err)
			}
			if !v.IsNull() && v.Bool() {
				want = append(want, int32(i))
			}
		}
		for _, leg := range []struct {
			name string
			vec  types.Vec
			sc   *vecScratch
		}{{"dict", *dv, dictSc}, {"strs", strsOf(dv), strsSc}} {
			b := &Batch{N: len(all), Cols: []types.Vec{leg.vec}}
			got := leg.sc.narrow([]vecExpr{kernel}, b, all)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s/batch%d/%s: kept %v, want %v", name, bi, leg.name, got, want)
			}
		}
		distinct := map[int32]bool{}
		for i, c := range dv.Codes {
			if !dv.NullAt(i) {
				distinct[c] = true
			}
		}
		m := &dictSc.memos[0]
		current := 0
		for _, e := range m.epoch {
			if e == m.cur {
				current++
			}
		}
		if current != len(distinct) {
			t.Errorf("%s/batch%d: memo holds %d current codes, want %d", name, bi, current, len(distinct))
		}
	}
	if strsSc.memos[0].cur != 0 {
		t.Errorf("%s: computed vector went through the code memo", name)
	}
}

// TestVecInListUsesDictCodes checks the compiled IN kernel against the
// row evaluator (checkDictKernel): NULL rows, a NULL list element, NOT
// IN, repeated codes, and a second batch under other dictionaries.
func TestVecInListUsesDictCodes(t *testing.T) {
	col := &plan.ColRef{ID: 0, Typ: types.TString}
	lit := func(s string) plan.Expr { return &plan.Const{Val: types.NewString(s)} }
	nullLit := &plan.Const{Val: types.NewNull(types.TString)}
	cases := []struct {
		name string
		list []plan.Expr
		not  bool
	}{
		{"in", []plan.Expr{lit("a"), lit("c")}, false},
		{"not-in", []plan.Expr{lit("a"), lit("c")}, true},
		{"in-null-elem", []plan.Expr{lit("b"), nullLit}, false},
		{"not-in-null-elem", []plan.Expr{lit("b"), nullLit}, true},
	}
	for _, tc := range cases {
		checkDictKernel(t, tc.name, &plan.InListExpr{E: col, List: tc.list, Not: tc.not})
	}
}

// TestVecJoinMatchesRowPath covers inner and left-outer joins, both
// build orientations, through the batch executor.
func TestVecJoinMatchesRowPath(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	cond := &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: rs.Cols[0], Typ: types.TInt},
		Typ: types.TBool}

	for _, buildLeft := range []bool{false, true} {
		inner := &plan.Join{Kind: plan.InnerJoin, Left: ls, Right: rs, Cond: cond, BuildLeft: buildLeft}
		if rows := runVecAndRow(t, ctx, db, inner, 2); len(rows) != 2 {
			t.Fatalf("buildLeft=%v: inner rows = %d, want 2", buildLeft, len(rows))
		}
		outer := &plan.Join{Kind: plan.LeftOuterJoin, Left: ls, Right: rs, Cond: cond, BuildLeft: buildLeft}
		if rows := runVecAndRow(t, ctx, db, outer, 2); len(rows) != 4 {
			t.Fatalf("buildLeft=%v: outer rows = %d, want 4", buildLeft, len(rows))
		}
	}
}

// TestVecJoinInnerBuildMemoryBudget kills a join over a join on the
// nested join's build: the outer join builds a three-row side within the
// budget, then opens its probe — the nested join — whose 20 000-row
// build side exceeds it. The kill is the typed ErrMemoryBudget, raised
// from Open after both joins reached PointHashBuild, and every byte is
// released on Close. The same plan without a budget runs.
func TestVecJoinInnerBuildMemoryBudget(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	scanOf := func(name string, n int) *plan.Scan {
		tbl, err := db.CreateTable(name, types.Schema{{Name: "k", Type: types.TInt}, {Name: "s", Type: types.TString}})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i % 3)), types.NewString(fmt.Sprintf("%s-%06d", name, i))}
		}
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		s := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: tbl.Schema()}, Instance: ctx.NewInstance(), Ords: []int{0, 1}}
		s.Cols = []types.ColumnID{ctx.NewColumn(name+".k", types.TInt), ctx.NewColumn(name+".s", types.TString)}
		return s
	}
	small, probe, big := scanOf("small", 3), scanOf("probe", 3), scanOf("big", 20000)
	eq := func(a, b *plan.Scan) plan.Expr {
		return &plan.Bin{Op: "=", L: &plan.ColRef{ID: a.Cols[0], Typ: types.TInt}, R: &plan.ColRef{ID: b.Cols[0], Typ: types.TInt}, Typ: types.TBool}
	}
	// Both joins build right: the outer one on small, the nested one on big.
	inner := &plan.Join{Kind: plan.InnerJoin, Left: probe, Right: big, Cond: eq(probe, big)}
	outer := &plan.Join{Kind: plan.InnerJoin, Left: inner, Right: small, Cond: eq(probe, small)}

	var builds int
	hooks := &Hooks{OnPoint: func(_ context.Context, p string) error {
		if p == PointHashBuild {
			builds++
		}
		return nil
	}}
	gov := NewGovernance(context.Background(), 128<<10, hooks)
	b := NewBuilder(ctx, db, db.CurrentTS())
	b.SetVectorize(0)
	b.SetGovernance(gov)
	it, err := b.Build(outer)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*vecRowsIter); !ok {
		t.Fatalf("join over join built %T, want one batch pipeline", it)
	}
	err = it.Open()
	it.Close()
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("Open: %v, want ErrMemoryBudget", err)
	}
	if builds != 2 {
		t.Fatalf("%d joins reached PointHashBuild before the kill, want both", builds)
	}
	if used := gov.Tracker().Used(); used != 0 {
		t.Fatalf("%d bytes still reserved after Close", used)
	}

	b = NewBuilder(ctx, db, db.CurrentTS())
	b.SetVectorize(0)
	rows, err := b.Run(outer)
	if err != nil {
		t.Fatal(err)
	}
	// Every big row meets exactly one probe row and one small row.
	if want := 20000; len(rows) != want {
		t.Fatalf("unbudgeted run: %d rows, want %d", len(rows), want)
	}
}

// TestVecGroupByDistinctMemoryBudget runs a batch GROUP BY and a batch
// DISTINCT over 20 000 distinct keys: under a 128 KiB budget each fails
// with ErrMemoryBudget from its key index and groups and releases every
// byte on Close, and under a 64 MiB one each returns all its rows.
func TestVecGroupByDistinctMemoryBudget(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	const n = 20000
	tbl, err := db.CreateTable("hc", types.Schema{{Name: "k", Type: types.TInt}, {Name: "s", Type: types.TString}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 3)), types.NewString(fmt.Sprintf("hc-%06d", i))}
	}
	if err := db.InsertRows("hc", rows); err != nil {
		t.Fatal(err)
	}
	scan := &plan.Scan{Info: &plan.TableInfo{Name: "hc", Schema: tbl.Schema()}, Instance: ctx.NewInstance(), Ords: []int{0, 1}}
	scan.Cols = []types.ColumnID{ctx.NewColumn("hc.k", types.TInt), ctx.NewColumn("hc.s", types.TString)}
	groupBy := &plan.GroupBy{Input: scan, GroupCols: []types.ColumnID{scan.Cols[1]}, Aggs: []plan.AggCol{
		{ID: ctx.NewColumn("n", types.TInt), Op: plan.AggCount, Star: true}}}
	strs := &plan.Scan{Info: scan.Info, Instance: ctx.NewInstance(), Ords: []int{1}}
	strs.Cols = []types.ColumnID{ctx.NewColumn("hc.s", types.TString)}
	plans := []struct {
		name string
		node plan.Node
	}{{"group-by", groupBy}, {"distinct", &plan.Distinct{Input: strs}}}
	for _, p := range plans {
		for _, budget := range []int64{128 << 10, 64 << 20} {
			gov := NewGovernance(context.Background(), budget, nil)
			b := NewBuilder(ctx, db, db.CurrentTS())
			b.SetVectorize(0)
			b.SetGovernance(gov)
			it, err := b.Build(p.node)
			if err != nil {
				t.Fatal(err)
			}
			if !isVecPipeline(it) {
				t.Fatalf("%s built %T, want a batch pipeline", p.name, it)
			}
			var got int
			err = it.Open()
			for err == nil {
				var ok bool
				if _, ok, err = it.Next(); !ok {
					break
				}
				got++
			}
			it.Close()
			if budget < 1<<20 {
				if !errors.Is(err, ErrMemoryBudget) {
					t.Errorf("%s under %d bytes: %v, want ErrMemoryBudget", p.name, budget, err)
				}
			} else if err != nil || got != n {
				t.Errorf("%s under %d bytes: %d rows, %v; want %d rows", p.name, budget, got, err, n)
			}
			if used := gov.Tracker().Used(); used != 0 {
				t.Errorf("%s: %d bytes still reserved after Close", p.name, used)
			}
		}
	}
}

// TestVecGroupSourceUnderJoinMemoryBudget puts a batch GROUP BY over
// 20 000 distinct keys under a batch join, as its build side and as its
// probe side, opposite a 10-row table: the whole plan is one batch
// pipeline. Under a 128 KiB budget the group source's fold fails with
// ErrMemoryBudget and every byte is released on Close; under 64 MiB the
// join returns one row per small row.
func TestVecGroupSourceUnderJoinMemoryBudget(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	const n = 20000
	big, err := db.CreateTable("hg", types.Schema{{Name: "k", Type: types.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := db.CreateTable("sg", types.Schema{{Name: "k", Type: types.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	if err := db.InsertRows("hg", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("sg", rows[:10]); err != nil {
		t.Fatal(err)
	}
	scan := func(tbl *storage.Table, name string) *plan.Scan {
		sc := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: tbl.Schema()}, Instance: ctx.NewInstance(), Ords: []int{0}}
		sc.Cols = []types.ColumnID{ctx.NewColumn(name+".k", types.TInt)}
		return sc
	}
	hg := scan(big, "hg")
	groups := &plan.GroupBy{Input: hg, GroupCols: hg.Cols, Aggs: []plan.AggCol{
		{ID: ctx.NewColumn("n", types.TInt), Op: plan.AggCount, Star: true}}}
	sg := scan(small, "sg")
	eq := &plan.Bin{Op: "=", Typ: types.TBool,
		L: &plan.ColRef{ID: sg.Cols[0], Typ: types.TInt}, R: &plan.ColRef{ID: hg.Cols[0], Typ: types.TInt}}
	plans := []struct {
		name string
		node plan.Node
	}{
		{"build", &plan.Join{Kind: plan.InnerJoin, Left: sg, Right: groups, Cond: eq}},
		{"probe", &plan.Join{Kind: plan.InnerJoin, Left: groups, Right: sg, Cond: eq}},
	}
	for _, p := range plans {
		for _, budget := range []int64{128 << 10, 64 << 20} {
			gov := NewGovernance(context.Background(), budget, nil)
			b := NewBuilder(ctx, db, db.CurrentTS())
			b.SetVectorize(0)
			b.SetGovernance(gov)
			it, err := b.Build(p.node)
			if err != nil {
				t.Fatal(err)
			}
			if it.(*vecRowsIter).spec.src.(*joinSource) == nil {
				t.Fatalf("%s: built %T, want one batch join pipeline", p.name, it)
			}
			var got int
			err = it.Open()
			for err == nil {
				var ok bool
				if _, ok, err = it.Next(); !ok {
					break
				}
				got++
			}
			it.Close()
			if budget < 1<<20 {
				if !errors.Is(err, ErrMemoryBudget) {
					t.Errorf("%s under %d bytes: %v, want ErrMemoryBudget", p.name, budget, err)
				}
			} else if err != nil || got != 10 {
				t.Errorf("%s under %d bytes: %d rows, %v; want 10 rows", p.name, budget, got, err)
			}
			if used := gov.Tracker().Used(); used != 0 {
				t.Errorf("%s: %d bytes still reserved after Close", p.name, used)
			}
		}
	}
}

// TestVecSortPointsAndMemoryBudget runs the batch ORDER BY bare, as a
// top-k and OFFSET-only over 20 000 rows. An unbounded sort fires
// PointSort and a bounded one PointTopK. Under a 128 KiB budget the two
// unbounded sorts fail with ErrMemoryBudget and the top-k, which holds
// ten rows, does not; under 64 MiB each returns its page. Every byte is
// released on Close.
func TestVecSortPointsAndMemoryBudget(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	const n = 20000
	tbl, err := db.CreateTable("hs", types.Schema{{Name: "k", Type: types.TInt}, {Name: "s", Type: types.TString}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 7)), types.NewString(fmt.Sprintf("hs-%06d", i))}
	}
	if err := db.InsertRows("hs", rows); err != nil {
		t.Fatal(err)
	}
	scan := &plan.Scan{Info: &plan.TableInfo{Name: "hs", Schema: tbl.Schema()}, Instance: ctx.NewInstance(), Ords: []int{0, 1}}
	scan.Cols = []types.ColumnID{ctx.NewColumn("hs.k", types.TInt), ctx.NewColumn("hs.s", types.TString)}
	srt := &plan.Sort{Input: scan, Keys: []plan.SortKey{{Col: scan.Cols[0], Desc: true}}}
	plans := []struct {
		name  string
		node  plan.Node
		point string
		rows  int
	}{
		{"bare", srt, PointSort, n},
		{"top-k", &plan.Limit{Input: srt, Count: 10}, PointTopK, 10},
		{"offset-only", &plan.Limit{Input: srt, Count: -1, Offset: 5}, PointSort, n - 5},
	}
	for _, p := range plans {
		for _, budget := range []int64{128 << 10, 64 << 20} {
			var points []string
			hooks := &Hooks{OnPoint: func(_ context.Context, point string) error {
				if point == PointSort || point == PointTopK {
					points = append(points, point)
				}
				return nil
			}}
			gov := NewGovernance(context.Background(), budget, hooks)
			b := NewBuilder(ctx, db, db.CurrentTS())
			b.SetVectorize(0)
			b.SetGovernance(gov)
			it, err := b.Build(p.node)
			if err != nil {
				t.Fatal(err)
			}
			if !isVecPipeline(it) {
				t.Fatalf("%s built %T, want a batch pipeline", p.name, it)
			}
			var got int
			err = it.Open()
			for err == nil {
				var ok bool
				if _, ok, err = it.Next(); !ok {
					break
				}
				got++
			}
			it.Close()
			if len(points) != 1 || points[0] != p.point {
				t.Errorf("%s fired %v, want [%s]", p.name, points, p.point)
			}
			if budget < 1<<20 && p.point == PointSort {
				if !errors.Is(err, ErrMemoryBudget) {
					t.Errorf("%s under %d bytes: %v, want ErrMemoryBudget", p.name, budget, err)
				}
			} else if err != nil || got != p.rows {
				t.Errorf("%s under %d bytes: %d rows, %v; want %d rows", p.name, budget, got, err, p.rows)
			}
			if used := gov.Tracker().Used(); used != 0 {
				t.Errorf("%s: %d bytes still reserved after Close", p.name, used)
			}
		}
	}
}

// TestCodeMemoEpochs pins the memo contract: values memoized under one
// dictionary view stay current while later batches decode through a Same
// view, are invisible under any other view (a merged delta, another
// column), and the uint32 epoch wrap resets instead of colliding with
// stale entries.
func TestCodeMemoEpochs(t *testing.T) {
	main, delta := []string{"a", "b"}, []string{"c", "d"}
	v1 := types.NewDictView(main, delta)
	var m codeMemo
	m.nextView(v1)
	m.put(2, 1)
	if _, ok := m.get(2); !ok {
		t.Fatal("memo entry not current after write")
	}
	// Same view: the next batch of the scan keeps the value.
	m.nextView(types.NewDictView(main, delta))
	if v, ok := m.get(2); !ok || v != 1 {
		t.Fatalf("entry under a Same view = %d, %v; want carried", v, ok)
	}
	// New view (the delta was merged away): the value is gone.
	m.nextView(types.NewDictView(main, nil))
	if _, ok := m.get(2); ok {
		t.Fatal("stale entry still current under a new view")
	}
	// Force the wrap: cur overflows to 0 and must reset all epochs.
	m.cur = ^uint32(0)
	m.epoch[1] = m.cur // stale entry that would collide after wrap
	m.nextView(v1)
	if m.cur != 1 {
		t.Fatalf("cur after wrap = %d, want 1", m.cur)
	}
	for i, e := range m.epoch {
		if e == m.cur {
			t.Fatalf("epoch[%d] collides with current after wrap", i)
		}
	}
}

// TestVecRowsIterLazyFill checks the adapter only fills batches as rows
// are pulled, so LIMIT-style early close does not scan the table.
func TestVecRowsIterLazyFill(t *testing.T) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	tbl, err := db.CreateTable("big", types.Schema{{Name: "x", Type: types.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	scan := &plan.Scan{Info: &plan.TableInfo{Name: "big", Schema: tbl.Schema()}, Instance: ctx.NewInstance()}
	scan.Cols = append(scan.Cols, ctx.NewColumn("x", types.TInt))
	scan.Ords = append(scan.Ords, 0)

	b := NewBuilder(ctx, db, db.CurrentTS())
	b.SetVectorize(10)
	it, err := b.Build(scan)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	row, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v ok=%v", err, ok)
	}
	if row[0].Int() != 0 {
		t.Fatalf("first row = %v", row)
	}
	vi, ok := it.(*vecRowsIter)
	if !ok {
		t.Fatalf("iterator is %T, want *vecRowsIter", it)
	}
	if pos := vi.spec.src.(*scanSource).pos; pos > 10 {
		t.Fatalf("adapter prefetched to pos %d after one row (batch 10)", pos)
	}
}

// TestVecCompilerDeclines covers, on hand-built plans nothing has
// analysed beforehand, the shapes the batch compiler once declined to
// the row executor: join kinds and conditions outside the hash join's
// probe loop, DISTINCT aggregates, and SUM over a non-numeric column,
// whose error must stay the row path's. Each now compiles to one batch
// pipeline and matches the row executor — compiling any of them as the
// nearest hash-join or plain-aggregate shape would change the result.
func TestVecCompilerDeclines(t *testing.T) {
	db, ctx, ls, rs := buildEnv(t)
	eq := &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: rs.Cols[0], Typ: types.TInt},
		Typ: types.TBool}
	lt := &plan.Bin{Op: "<", L: eq.L, R: eq.R, Typ: types.TBool}
	requirePipeline := func(name string, n plan.Node) {
		t.Helper()
		b := NewBuilder(ctx, db, db.CurrentTS())
		b.SetVectorize(2)
		it, err := b.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		if !isVecPipeline(it) {
			t.Errorf("%s: built %T, want one batch pipeline", name, it)
		}
	}

	joins := []struct {
		name string
		join *plan.Join
		rows int
	}{
		{"semi", &plan.Join{Kind: plan.SemiJoin, Left: ls, Right: rs, Cond: eq}, 2},
		{"anti", &plan.Join{Kind: plan.AntiJoin, Left: ls, Right: rs, Cond: eq}, 2},
		{"non-equi", &plan.Join{Kind: plan.InnerJoin, Left: ls, Right: rs, Cond: lt}, 3},
		{"cross", &plan.Join{Kind: plan.CrossJoin, Left: ls, Right: rs}, 12},
	}
	for _, tc := range joins {
		if rows := runVecAndRow(t, ctx, db, tc.join, 2); len(rows) != tc.rows {
			t.Errorf("%s join: %d rows, want %d", tc.name, len(rows), tc.rows)
		}
		requirePipeline(tc.name+" join", tc.join)
	}

	distinct := &plan.GroupBy{Input: ls, Aggs: []plan.AggCol{{
		ID: ctx.NewColumn("cd", types.TInt), Op: plan.AggCount, Distinct: true,
		Arg: &plan.ColRef{ID: ls.Cols[1], Typ: types.TInt}}}}
	if rows := runVecAndRow(t, ctx, db, distinct, 2); rows[0][0].Int() != 3 {
		t.Errorf("count(distinct ref) = %v, want 3", rows[0][0])
	}
	requirePipeline("distinct aggregate", distinct)

	sumStr := &plan.GroupBy{Input: ls, Aggs: []plan.AggCol{{
		ID: ctx.NewColumn("s", types.TString), Op: plan.AggSum,
		Arg: &plan.ColRef{ID: ls.Cols[2], Typ: types.TString}}}}
	_, rowErr := NewBuilder(ctx, db, db.CurrentTS()).Run(sumStr)
	vb := NewBuilder(ctx, db, db.CurrentTS())
	vb.SetVectorize(2)
	_, vecErr := vb.Run(sumStr)
	if rowErr == nil || vecErr == nil || vecErr.Error() != rowErr.Error() {
		t.Errorf("sum(varchar): vectorized error %v, row error %v", vecErr, rowErr)
	}
	requirePipeline("sum(varchar)", sumStr)
}

// deepExpr nests CASE and arithmetic depth levels over one int column:
// level k is CASE WHEN x > k THEN <level k-1> + 1 ELSE x END, so the
// tree is linear in depth and every level has a typed subtree below it.
func deepExpr(x *plan.ColRef, depth int) plan.Expr {
	var e plan.Expr = x
	for k := 0; k < depth; k++ {
		e = &plan.Case{Typ: types.TInt, Else: x, Whens: []plan.CaseArm{{
			Cond: &plan.Bin{Op: ">", L: x, R: &plan.Const{Val: types.NewInt(int64(k))}, Typ: types.TBool},
			Then: &plan.Bin{Op: "+", L: e, R: &plan.Const{Val: types.NewInt(1)}, Typ: types.TInt},
		}}}
	}
	return e
}

var benchSink Iterator

// isVecPipeline reports whether a built iterator is a batch pipeline
// behind the row adapter, looking through the analyze wrapper.
func isVecPipeline(it Iterator) bool {
	if st, ok := it.(*statIter); ok {
		it = st.inner
	}
	_, ok := it.(*vecRowsIter)
	return ok
}

// BenchmarkVecCompileDeepExpr times building a Project whose computed
// column nests CASE/arithmetic 64 levels deep. The compiler types each
// subtree once, on the way up; typing it again at every enclosing level
// is quadratic in the depth.
func BenchmarkVecCompileDeepExpr(b *testing.B) {
	db := storage.NewDB()
	ctx := plan.NewContext()
	tbl, err := db.CreateTable("t", types.Schema{{Name: "x", Type: types.TInt}})
	if err != nil {
		b.Fatal(err)
	}
	scan := &plan.Scan{Info: &plan.TableInfo{Name: "t", Schema: tbl.Schema()}, Instance: ctx.NewInstance(),
		Cols: []types.ColumnID{ctx.NewColumn("x", types.TInt)}, Ords: []int{0}}
	x := &plan.ColRef{ID: scan.Cols[0], Typ: types.TInt}
	proj := &plan.Project{Input: scan, Cols: []plan.ProjCol{{ID: ctx.NewColumn("deep", types.TInt), Expr: deepExpr(x, 64)}}}

	build := func() Iterator {
		bld := NewBuilder(ctx, db, db.CurrentTS())
		bld.SetVectorize(0)
		it, err := bld.Build(proj)
		if err != nil {
			b.Fatal(err)
		}
		return it
	}
	if !isVecPipeline(build()) {
		b.Fatal("deep expression did not compile to a batch pipeline")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = build()
	}
}
