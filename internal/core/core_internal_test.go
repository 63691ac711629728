package core

import (
	"testing"

	"vdm/internal/plan"
	"vdm/internal/types"
)

func boolConst(v bool) plan.Expr { return &plan.Const{Val: types.NewBool(v)} }

func intConst(v int64) plan.Expr { return &plan.Const{Val: types.NewInt(v)} }

func colRef(id types.ColumnID, t types.Type) plan.Expr { return &plan.ColRef{ID: id, Typ: t} }

func TestFoldExprBooleanIdentities(t *testing.T) {
	c := colRef(1, types.TBool)
	cases := []struct {
		in   plan.Expr
		want string
	}{
		{&plan.Bin{Op: "AND", L: boolConst(true), R: c, Typ: types.TBool}, plan.ExprKey(c)},
		{&plan.Bin{Op: "AND", L: c, R: boolConst(false), Typ: types.TBool}, plan.ExprKey(plan.FalseExpr())},
		{&plan.Bin{Op: "OR", L: boolConst(false), R: c, Typ: types.TBool}, plan.ExprKey(c)},
		{&plan.Bin{Op: "OR", L: c, R: boolConst(true), Typ: types.TBool}, plan.ExprKey(plan.TrueExpr())},
	}
	for i, cse := range cases {
		if got := plan.ExprKey(new(Optimizer).fold(cse.in)); got != cse.want {
			t.Errorf("case %d: folded to %s, want %s", i, got, cse.want)
		}
	}
}

func TestFoldExprConstArithmetic(t *testing.T) {
	e := &plan.Bin{Op: "+", L: intConst(1), R: &plan.Bin{Op: "*", L: intConst(2), R: intConst(3), Typ: types.TInt}, Typ: types.TInt}
	folded := new(Optimizer).fold(e)
	c, ok := folded.(*plan.Const)
	if !ok || c.Val.Int() != 7 {
		t.Fatalf("folded = %v", plan.ExprString(nil, folded))
	}
	// Errors (division by zero) are left unfolded for runtime.
	bad := &plan.Bin{Op: "/", L: intConst(1), R: intConst(0), Typ: types.TFloat}
	if _, isConst := new(Optimizer).fold(bad).(*plan.Const); isConst {
		t.Fatal("division by zero must not fold")
	}
}

func TestNullRejecting(t *testing.T) {
	right := types.MakeColSet(5, 6)
	cases := []struct {
		e    plan.Expr
		want bool
	}{
		// right = 3 → NULL = 3 is NULL → rejecting
		{&plan.Bin{Op: "=", L: colRef(5, types.TInt), R: intConst(3), Typ: types.TBool}, true},
		// right IS NULL → TRUE on nulls → not rejecting
		{&plan.IsNullExpr{E: colRef(5, types.TInt)}, false},
		// right IS NOT NULL → FALSE on nulls → rejecting
		{&plan.IsNullExpr{E: colRef(5, types.TInt), Not: true}, true},
		// left-only predicate → not about right side
		{&plan.Bin{Op: "=", L: colRef(1, types.TInt), R: intConst(3), Typ: types.TBool}, false},
		// right = 3 OR right IS NULL → true on nulls → not rejecting
		{&plan.Bin{Op: "OR",
			L:   &plan.Bin{Op: "=", L: colRef(5, types.TInt), R: intConst(3), Typ: types.TBool},
			R:   &plan.IsNullExpr{E: colRef(5, types.TInt)},
			Typ: types.TBool}, false},
		// right-col compared to left-col → comparison with NULL → rejecting
		{&plan.Bin{Op: "<", L: colRef(1, types.TInt), R: colRef(6, types.TInt), Typ: types.TBool}, true},
		// right IN (1,2) → NULL IN list → NULL → rejecting
		{&plan.InListExpr{E: colRef(5, types.TInt), List: []plan.Expr{intConst(1), intConst(2)}}, true},
	}
	for i, c := range cases {
		if got := new(Optimizer).nullRejecting(c.e, right); got != c.want {
			t.Errorf("case %d (%s): nullRejecting = %v, want %v",
				i, plan.ExprString(nil, c.e), got, c.want)
		}
	}
}

func TestPairDisjoint(t *testing.T) {
	v := func(s string) *plan.Const { return &plan.Const{Val: types.NewString(s)} }
	iv := func(n int64) *plan.Const { return &plan.Const{Val: types.NewInt(n)} }
	cases := []struct {
		a, b *colConstraint
		want bool
	}{
		{&colConstraint{eq: v("O")}, &colConstraint{eq: v("F")}, true},
		{&colConstraint{eq: v("O")}, &colConstraint{eq: v("O")}, false},
		{&colConstraint{eq: v("O")}, &colConstraint{ne: []*plan.Const{v("O")}}, true},
		{&colConstraint{eq: v("O")}, &colConstraint{in: []*plan.Const{v("F"), v("P")}}, true},
		{&colConstraint{eq: v("F")}, &colConstraint{in: []*plan.Const{v("F"), v("P")}}, false},
		{&colConstraint{in: []*plan.Const{v("A")}}, &colConstraint{in: []*plan.Const{v("B")}}, true},
		{&colConstraint{in: []*plan.Const{v("A"), v("B")}}, &colConstraint{in: []*plan.Const{v("B")}}, false},
		{&colConstraint{hi: iv(5), hiOpen: true}, &colConstraint{lo: iv(5)}, true},
		{&colConstraint{hi: iv(5)}, &colConstraint{lo: iv(5)}, false},
		{&colConstraint{hi: iv(4)}, &colConstraint{lo: iv(5)}, true},
		{&colConstraint{eq: iv(3)}, &colConstraint{lo: iv(5)}, true},
		{&colConstraint{eq: iv(7)}, &colConstraint{hi: iv(5)}, true},
		{&colConstraint{eq: iv(5)}, &colConstraint{lo: iv(5)}, false},
	}
	for i, c := range cases {
		o := new(Optimizer)
		got := o.pairDisjoint(c.a, c.b) || o.pairDisjoint(c.b, c.a)
		if got != c.want {
			t.Errorf("case %d: disjoint = %v, want %v", i, got, c.want)
		}
	}
}

func TestCapabilityHas(t *testing.T) {
	c := CapColumnPrune | CapASJ
	if !c.Has(CapASJ) || c.Has(CapCaseJoin) || !c.Has(CapColumnPrune|CapASJ) {
		t.Error("Capability.Has broken")
	}
}

func TestProfilesOrder(t *testing.T) {
	ps := Profiles()
	want := []string{"HANA", "Postgres", "System X", "System Y", "System Z"}
	if len(ps) != len(want) {
		t.Fatalf("profiles = %d", len(ps))
	}
	for i := range want {
		if ps[i].Name != want[i] {
			t.Errorf("profile %d = %s, want %s", i, ps[i].Name, want[i])
		}
	}
	if ProfileHANA.Caps&CapCaseJoin == 0 {
		t.Error("HANA must have CapCaseJoin")
	}
	if ProfileHANANoCaseJoin.Caps&CapCaseJoin != 0 || ProfileHANANoCaseJoin.Caps&CapASJUnionAuto == 0 {
		t.Error("no-case-join profile wrong")
	}
}

// TestPropsScanKeys checks key derivation on a scan with a composite
// primary key plus the const-filter reduction (AJ 2a-3).
func TestPropsScanKeysAndConstReduction(t *testing.T) {
	ctx := plan.NewContext()
	info := &plan.TableInfo{
		Name: "li",
		Schema: types.Schema{
			{Name: "ok", Type: types.TInt, NotNull: true},
			{Name: "ln", Type: types.TInt, NotNull: true},
			{Name: "qty", Type: types.TInt},
		},
		Keys: []plan.KeyInfo{{Columns: []int{0, 1}, Primary: true}},
	}
	scan := &plan.Scan{Info: info, Instance: ctx.NewInstance()}
	for ord, col := range info.Schema {
		scan.Cols = append(scan.Cols, ctx.NewColumn(col.Name, col.Type))
		scan.Ords = append(scan.Ords, ord)
	}
	o := NewOptimizer(ctx, ProfileHANA)
	p := o.deriveProps(scan)
	if len(p.keys) == 0 || !p.keys[0].Equals(types.MakeColSet(scan.Cols[0], scan.Cols[1])) {
		t.Fatalf("scan keys = %v", p.keys)
	}
	// Filter ln = 1 → (ok) becomes a key.
	filter := &plan.Filter{Input: scan, Cond: &plan.Bin{
		Op: "=", L: colRef(scan.Cols[1], types.TInt), R: intConst(1), Typ: types.TBool}}
	fp := o.deriveProps(filter)
	found := false
	for _, k := range fp.keys {
		if k.Equals(types.MakeColSet(scan.Cols[0])) {
			found = true
		}
	}
	if !found {
		t.Fatalf("const-reduced key missing: %v", fp.keys)
	}
	// Without CapUAJConstFilter the reduced key must not appear.
	oWeak := NewOptimizer(ctx, Profile{Name: "w", Caps: CapColumnPrune | CapUAJUniqueKey})
	fpWeak := oWeak.deriveProps(filter)
	for _, k := range fpWeak.keys {
		if k.Equals(types.MakeColSet(scan.Cols[0])) {
			t.Fatal("reduced key must be capability-gated")
		}
	}
}

func TestIsStaticallyEmpty(t *testing.T) {
	ctx := plan.NewContext()
	empty := &plan.Values{Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}}
	if !new(Optimizer).isStaticallyEmpty(empty) {
		t.Error("empty Values")
	}
	oneRow := &plan.Values{Rows: [][]plan.Expr{{intConst(1)}}, Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}}
	if new(Optimizer).isStaticallyEmpty(oneRow) {
		t.Error("one-row Values is not empty")
	}
	falseFilter := &plan.Filter{Input: oneRow, Cond: boolConst(false)}
	if !new(Optimizer).isStaticallyEmpty(falseFilter) {
		t.Error("FALSE filter")
	}
	if !new(Optimizer).isStaticallyEmpty(&plan.Limit{Input: oneRow, Count: 0}) {
		t.Error("LIMIT 0")
	}
	if !new(Optimizer).isStaticallyEmpty(&plan.Join{Kind: plan.InnerJoin, Left: empty, Right: oneRow}) {
		t.Error("inner join with empty side")
	}
	if new(Optimizer).isStaticallyEmpty(&plan.Join{Kind: plan.LeftOuterJoin, Left: oneRow, Right: empty}) {
		t.Error("left outer join with empty right keeps left rows")
	}
	if !new(Optimizer).isStaticallyEmpty(&plan.UnionAll{Children: []plan.Node{empty, falseFilter}}) {
		t.Error("union of empties")
	}
}
