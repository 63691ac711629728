package plan

import (
	"math/rand"
	"testing"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

func konst(v types.Value) Expr { return &Const{Val: v} }

// TestExprKeyFormat pins the key of every expression shape and constant
// type byte for byte: the GROUP BY matcher and the ASJ predicate
// comparison store and compare these strings.
func TestExprKeyFormat(t *testing.T) {
	and := func(l, r Expr) Expr { return b("AND", l, r) }
	or := func(l, r Expr) Expr { return b("OR", l, r) }
	const k0, k1, k2, k5 = "k\x01\x00\x00\x00\x00\x00\x00\x00\x00", "k\x01\x00\x00\x00\x00\x00\x00\x00\x01",
		"k\x01\x00\x00\x00\x00\x00\x00\x00\x02", "k\x01\x00\x00\x00\x00\x00\x00\x00\x05"
	cases := []struct {
		name string
		e    Expr
		want string
	}{
		{"col", c(7), "c7"},
		{"col-wide", c(123456), "c123456"},
		{"nil", nil, "∅"},
		{"int", k(42), "k\x01\x00\x00\x00\x00\x00\x00\x00*"},
		{"int-neg", k(-3), "k\x01\xff\xff\xff\xff\xff\xff\xff\xfd"},
		{"float", konst(types.NewFloat(1.5)), "k\x02?\xf8\x00\x00\x00\x00\x00\x00"},
		{"string", konst(types.NewString("ab c")), "k\x03\x04ab c"},
		{"string-empty", konst(types.NewString("")), "k\x03\x00"},
		{"decimal", konst(types.NewDecimal(decimal.MustParse("12.340"))), "k\x04\x00\x00\x00\x00\x00\x00\x04\xd2\x00\x00\x00\x02"},
		{"date", konst(types.NewDate(19000)), "k\x01\x00\x00\x00\x00\x00\x00J8"},
		{"bool", konst(types.NewBool(true)), k1},
		{"null", konst(types.NewNull(types.TInt)), "k\x00"},
		{"eq", b("=", c(1), c(2)), "(c1 = c2)"},
		{"eq-swapped", b("=", c(2), c(1)), "(c1 = c2)"},
		{"ne-const", b("<>", k(5), c(10)), "(c10 <> " + k5 + ")"},
		{"plus", b("+", c(9), c(10)), "(c10 + c9)"},
		{"times", b("*", k(2), c(3)), "(c3 * " + k2 + ")"},
		{"lt", b("<", c(2), c(1)), "(c2 < c1)"},
		{"gt", b(">", c(1), c(2)), "(c2 < c1)"},
		{"ge", b(">=", c(1), k(0)), "(" + k0 + " <= c1)"},
		{"le", b("<=", c(1), k(0)), "(c1 <= " + k0 + ")"},
		{"minus", b("-", c(3), c(1)), "(c3 - c1)"},
		{"concat", b("||", konst(types.NewString("x")), c(1)), "(k\x03\x01x || c1)"},
		{"and-nested", and(or(c(3), c(1)), b("=", c(2), k(5))), "((c1 OR c3) AND (c2 = " + k5 + "))"},
		{"and-nested-swapped", and(b("=", k(5), c(2)), or(c(1), c(3))), "((c1 OR c3) AND (c2 = " + k5 + "))"},
		{"or-of-ands", or(and(c(4), c(2)), and(c(1), b(">", c(8), konst(types.NewString("z"))))),
			"(((k\x03\x01z < c8) AND c1) OR (c2 AND c4))"},
		{"un", &Un{Op: "NOT", E: b("=", c(1), c(2)), Typ: types.TBool}, "(NOT (c1 = c2))"},
		{"neg", &Un{Op: "-", E: c(11), Typ: types.TInt}, "(- c11)"},
		{"isnull", &IsNullExpr{E: c(4)}, "(c4 ISNULL)"},
		{"isnotnull", &IsNullExpr{E: b("+", c(4), k(1)), Not: true}, "((c4 + " + k1 + ") ISNOTNULL)"},
		{"in", &InListExpr{E: c(1), List: []Expr{k(1), konst(types.NewString("q")), c(2)}}, "(c1 IN " + k1 + " k\x03\x01q c2)"},
		{"not-in", &InListExpr{E: c(1), List: []Expr{k(3)}, Not: true}, "(c1 IN NOT k\x01\x00\x00\x00\x00\x00\x00\x00\x03)"},
		{"func", &Func{Name: "ROUND", Args: []Expr{b("*", c(1), k(2)), k(2)}, Typ: types.TDecimal}, "(ROUND (c1 * " + k2 + ") " + k2 + ")"},
		{"func-noargs", &Func{Name: "NOW", Typ: types.TDate}, "(NOW)"},
		{"case", &Case{Whens: []CaseArm{{Cond: b(">", c(1), k(0)), Then: konst(types.NewString("p"))},
			{Cond: &IsNullExpr{E: c(1)}, Then: konst(types.NewString("n"))}}, Else: c(2), Typ: types.TString},
			"(CASE [(" + k0 + " < c1)->k\x03\x01p] [(c1 ISNULL)->k\x03\x01n] else c2)"},
		{"case-noelse", &Case{Whens: []CaseArm{{Cond: c(1), Then: k(1)}}, Typ: types.TInt}, "(CASE [c1->" + k1 + "])"},
	}
	for _, tc := range cases {
		if got := ExprKey(tc.e); got != tc.want {
			t.Errorf("%s: key %q, want %q", tc.name, got, tc.want)
		}
	}
}

// mirror returns e with the operands of every commutative operator
// swapped and every < / <= turned into > / >= with swapped operands:
// an expression ExprKey must not tell from e.
func mirror(e Expr) Expr {
	x, ok := e.(*Bin)
	if !ok {
		return e
	}
	op := x.Op
	switch op {
	case "<":
		op = ">"
	case "<=":
		op = ">="
	case "=", "<>", "+", "*", "AND", "OR":
	default:
		return &Bin{Op: op, L: mirror(x.L), R: mirror(x.R), Typ: x.Typ}
	}
	return &Bin{Op: op, L: mirror(x.R), R: mirror(x.L), Typ: x.Typ}
}

func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return c(types.ColumnID(r.Intn(12)))
		case 1:
			return k(int64(r.Intn(5)))
		}
		return konst(types.NewString(string(rune('a' + r.Intn(3)))))
	}
	ops := []string{"=", "<>", "+", "*", "AND", "OR", "<", "<=", "-", "||"}
	return b(ops[r.Intn(len(ops))], randExpr(r, depth-1), randExpr(r, depth-1))
}

// TestExprKeyCommutativeCanonical checks on random trees that swapping
// commutative operands and mirroring comparisons, at every depth, leaves
// the key unchanged.
func TestExprKeyCommutativeCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		e := randExpr(r, 5)
		if a, m := ExprKey(e), ExprKey(mirror(e)); a != m {
			t.Fatalf("key %q, mirrored %q", a, m)
		}
	}
}

// TestRewriteExprCopyOnWrite: an identity rewrite returns the input
// itself, and rewriting one leaf copies only the path to it.
func TestRewriteExprCopyOnWrite(t *testing.T) {
	shared := b("=", c(2), k(5))
	e := &Case{
		Whens: []CaseArm{{Cond: b("AND", b("OR", c(3), c(1)), shared), Then: &Func{Name: "ABS", Args: []Expr{c(4)}, Typ: types.TInt}}},
		Else:  &InListExpr{E: &Un{Op: "-", E: c(6), Typ: types.TInt}, List: []Expr{k(1), &IsNullExpr{E: c(7)}}},
		Typ:   types.TInt,
	}
	before := ExprKey(e)
	if got := RewriteExpr(e, func(x Expr) Expr { return x }); got != Expr(e) {
		t.Fatal("identity rewrite must return the input itself")
	}

	out := RewriteExpr(e, func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok && cr.ID == 3 {
			return c(30)
		}
		return x
	}).(*Case)
	if ExprKey(e) != before {
		t.Fatal("the rewrite modified its input")
	}
	and := out.Whens[0].Cond.(*Bin)
	orig := e.Whens[0].Cond.(*Bin)
	switch {
	case out == e || and == orig || and.L == orig.L:
		t.Fatal("the changed leaf's path must be copied")
	case and.R != shared || out.Whens[0].Then != e.Whens[0].Then || out.Else != e.Else:
		t.Fatal("subtrees off the changed path must be shared")
	case and.L.(*Bin).R != orig.L.(*Bin).R:
		t.Fatal("the unchanged sibling of the leaf must be shared")
	}
	if !ColsUsed(out).Equals(types.MakeColSet(30, 1, 2, 4, 6, 7)) {
		t.Fatalf("rewritten columns = %s", ColsUsed(out))
	}

	// A change inside a list copies the list, not its other members.
	in := e.Else.(*InListExpr)
	got := RewriteExpr(in, func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok && cr.ID == 7 {
			return c(70)
		}
		return x
	}).(*InListExpr)
	if got == in || got.E != in.E || got.List[0] != in.List[0] || got.List[1] == in.List[1] {
		t.Fatal("list rewrite must copy only the changed member")
	}
}
