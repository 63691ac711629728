package plan

import (
	"strings"
	"testing"

	"vdm/internal/types"
)

func c(id types.ColumnID) Expr { return &ColRef{ID: id, Typ: types.TInt} }

func k(v int64) Expr { return &Const{Val: types.NewInt(v)} }

func b(op string, l, r Expr) Expr { return &Bin{Op: op, L: l, R: r, Typ: types.TBool} }

func TestExprKeyCanonicalizesCommutativity(t *testing.T) {
	if ExprKey(b("=", c(1), c(2))) != ExprKey(b("=", c(2), c(1))) {
		t.Error("a=b should equal b=a")
	}
	if ExprKey(b("<", c(1), c(2))) != ExprKey(b(">", c(2), c(1))) {
		t.Error("a<b should equal b>a")
	}
	if ExprKey(b("<=", c(1), c(2))) != ExprKey(b(">=", c(2), c(1))) {
		t.Error("a<=b should equal b>=a")
	}
	if ExprKey(b("<", c(1), c(2))) == ExprKey(b("<", c(2), c(1))) {
		t.Error("a<b must differ from b<a")
	}
	if ExprKey(b("AND", c(1), c(2))) != ExprKey(b("AND", c(2), c(1))) {
		t.Error("AND is commutative")
	}
	if ExprKey(k(1)) == ExprKey(k(2)) {
		t.Error("different constants must differ")
	}
}

func TestConjunctsAndAll(t *testing.T) {
	e := b("AND", b("AND", c(1), c(2)), c(3))
	parts := Conjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	back := AndAll(parts)
	if len(Conjuncts(back)) != 3 {
		t.Fatal("AndAll roundtrip")
	}
	if AndAll(nil) != nil {
		t.Fatal("empty AndAll should be nil")
	}
	if len(Conjuncts(nil)) != 0 {
		t.Fatal("Conjuncts(nil)")
	}
}

func TestColsUsedCoversAllShapes(t *testing.T) {
	e := &Case{
		Whens: []CaseArm{{
			Cond: &InListExpr{E: c(1), List: []Expr{c(2), k(1)}},
			Then: &Func{Name: "ABS", Args: []Expr{c(3)}, Typ: types.TInt},
		}},
		Else: &Un{Op: "-", E: c(4), Typ: types.TInt},
		Typ:  types.TInt,
	}
	used := ColsUsed(e)
	if !used.Equals(types.MakeColSet(1, 2, 3, 4)) {
		t.Fatalf("used = %s", used)
	}
}

func TestRemapAndSubstitute(t *testing.T) {
	e := b("=", c(1), c(2))
	m := RemapColumns(e, map[types.ColumnID]types.ColumnID{1: 10})
	if !ColsUsed(m).Equals(types.MakeColSet(10, 2)) {
		t.Fatalf("remap = %s", ColsUsed(m))
	}
	s := SubstituteColumns(e, map[types.ColumnID]Expr{2: k(5)})
	if !ColsUsed(s).Equals(types.MakeColSet(1)) {
		t.Fatalf("substitute = %s", ColsUsed(s))
	}
	// Original untouched.
	if !ColsUsed(e).Equals(types.MakeColSet(1, 2)) {
		t.Fatal("rewrites must not mutate the source")
	}
}

func testTree(ctx *Context) Node {
	info := &TableInfo{Name: "t", Schema: types.Schema{{Name: "a", Type: types.TInt}}}
	scan1 := &Scan{Info: info, Instance: ctx.NewInstance(),
		Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}, Ords: []int{0}}
	scan2 := &Scan{Info: info, Instance: ctx.NewInstance(),
		Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}, Ords: []int{0}}
	join := &Join{Kind: LeftOuterJoin, Left: scan1, Right: scan2,
		Cond: b("=", c(scan1.Cols[0]), c(scan2.Cols[0]))}
	u := &UnionAll{Children: []Node{join},
		Cols: []types.ColumnID{ctx.NewColumn("u1", types.TInt), ctx.NewColumn("u2", types.TInt)}}
	gb := &GroupBy{Input: u, GroupCols: []types.ColumnID{u.Cols[0]},
		Aggs: []AggCol{{ID: ctx.NewColumn("cnt", types.TInt), Op: AggCount, Star: true}}}
	d := &Distinct{Input: gb}
	srt := &Sort{Input: d, Keys: []SortKey{{Col: u.Cols[0]}}}
	lim := &Limit{Input: srt, Count: 5}
	return &Filter{Input: lim, Cond: b(">", c(u.Cols[0]), k(0))}
}

func TestCollectStats(t *testing.T) {
	ctx := NewContext()
	root := testTree(ctx)
	st := CollectStats(root)
	if st.TableInstances != 2 || st.Joins != 1 || st.UnionAlls != 1 ||
		st.UnionAllChildren != 1 || st.GroupBys != 1 || st.Distincts != 1 ||
		st.Filters != 1 || st.Limits != 1 || st.Sorts != 1 {
		t.Fatalf("stats = %s", st)
	}
	if !strings.Contains(st.String(), "tables=2") {
		t.Fatalf("stats string = %s", st)
	}
}

func TestFormatMentionsOperators(t *testing.T) {
	ctx := NewContext()
	root := testTree(ctx)
	out := Format(ctx, root)
	for _, frag := range []string{"Scan t#1", "LeftOuterJoin", "UnionAll", "GroupBy", "Distinct", "Sort", "Limit 5", "Filter"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Format missing %q:\n%s", frag, out)
		}
	}
}

func TestNodeInputsAndSetInput(t *testing.T) {
	ctx := NewContext()
	info := &TableInfo{Name: "t", Schema: types.Schema{{Name: "a", Type: types.TInt}}}
	scan := &Scan{Info: info, Instance: ctx.NewInstance(),
		Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}, Ords: []int{0}}
	f := &Filter{Input: scan, Cond: TrueExpr()}
	other := &Values{}
	f.SetInput(0, other)
	if f.Inputs()[0] != Node(other) {
		t.Fatal("SetInput failed")
	}
	j := &Join{Left: scan, Right: other}
	j.SetInput(1, scan)
	if j.Right != Node(scan) {
		t.Fatal("join SetInput failed")
	}
	if len(j.Columns()) != 2 {
		t.Fatalf("join columns = %d", len(j.Columns()))
	}
}

func TestScanOrdOf(t *testing.T) {
	ctx := NewContext()
	info := &TableInfo{Name: "t", Schema: types.Schema{
		{Name: "a", Type: types.TInt}, {Name: "b", Type: types.TInt}}}
	scan := &Scan{Info: info,
		Cols: []types.ColumnID{ctx.NewColumn("b", types.TInt)}, Ords: []int{1}}
	if scan.OrdOf(1) != 0 || scan.OrdOf(0) != -1 {
		t.Fatal("OrdOf wrong")
	}
}

func TestIsConstBoolHelpers(t *testing.T) {
	if !IsConstBool(TrueExpr(), true) || IsConstBool(TrueExpr(), false) {
		t.Fatal("IsConstBool true")
	}
	if !IsConstBool(FalseExpr(), false) {
		t.Fatal("IsConstBool false")
	}
	if IsConstBool(k(1), true) {
		t.Fatal("int constant is not a bool")
	}
}
