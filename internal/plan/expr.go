package plan

import (
	"fmt"
	"strings"

	"vdm/internal/types"
)

// Expr is a bound scalar expression over plan columns.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.Type
	exprNode()
}

// ColRef references a plan column.
type ColRef struct {
	ID  types.ColumnID
	Typ types.Type
}

// Type implements Expr.
func (c *ColRef) Type() types.Type { return c.Typ }
func (c *ColRef) exprNode()        {}

// Const is a literal.
type Const struct {
	Val types.Value
}

// Type implements Expr.
func (c *Const) Type() types.Type { return c.Val.Typ }
func (c *Const) exprNode()        {}

// Bin is a binary operation: + - * / || = <> < <= > >= AND OR.
type Bin struct {
	Op   string
	L, R Expr
	Typ  types.Type
}

// Type implements Expr.
func (b *Bin) Type() types.Type { return b.Typ }
func (b *Bin) exprNode()        {}

// Un is unary - or NOT.
type Un struct {
	Op  string
	E   Expr
	Typ types.Type
}

// Type implements Expr.
func (u *Un) Type() types.Type { return u.Typ }
func (u *Un) exprNode()        {}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// Type implements Expr.
func (*IsNullExpr) Type() types.Type { return types.TBool }
func (*IsNullExpr) exprNode()        {}

// InListExpr is `expr [NOT] IN (...)`.
type InListExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// Type implements Expr.
func (*InListExpr) Type() types.Type { return types.TBool }
func (*InListExpr) exprNode()        {}

// Func is a scalar function call (ROUND, ABS, COALESCE, UPPER, LOWER,
// LENGTH, SUBSTR, CONCAT, ...).
type Func struct {
	Name string
	Args []Expr
	Typ  types.Type
}

// Type implements Expr.
func (f *Func) Type() types.Type { return f.Typ }
func (f *Func) exprNode()        {}

// Case is a searched CASE.
type Case struct {
	Whens []CaseArm
	Else  Expr // may be nil
	Typ   types.Type
}

// CaseArm is one WHEN/THEN pair.
type CaseArm struct {
	Cond Expr
	Then Expr
}

// Type implements Expr.
func (c *Case) Type() types.Type { return c.Typ }
func (c *Case) exprNode()        {}

// ColsUsed returns the set of columns an expression references.
func ColsUsed(e Expr) types.ColSet {
	var s types.ColSet
	addColsUsed(e, &s)
	return s
}

func addColsUsed(e Expr, s *types.ColSet) {
	switch e := e.(type) {
	case nil:
	case *ColRef:
		s.Add(e.ID)
	case *Const:
	case *Bin:
		addColsUsed(e.L, s)
		addColsUsed(e.R, s)
	case *Un:
		addColsUsed(e.E, s)
	case *IsNullExpr:
		addColsUsed(e.E, s)
	case *InListExpr:
		addColsUsed(e.E, s)
		for _, x := range e.List {
			addColsUsed(x, s)
		}
	case *Func:
		for _, a := range e.Args {
			addColsUsed(a, s)
		}
	case *Case:
		for _, w := range e.Whens {
			addColsUsed(w.Cond, s)
			addColsUsed(w.Then, s)
		}
		addColsUsed(e.Else, s)
	default:
		panic(fmt.Sprintf("plan: ColsUsed: unknown expr %T", e))
	}
}

// Conjuncts splits an AND tree into its conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Disjuncts splits an OR tree into its disjuncts, mirroring Conjuncts.
func Disjuncts(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == "OR" {
		return append(Disjuncts(b.L), Disjuncts(b.R)...)
	}
	return []Expr{e}
}

// ColConstCmp decomposes `col op literal`, in either orientation, into
// the column, the literal and the operator as it reads with the column
// on the left: `5 < x` yields (x, 5, ">"). ok is false when b is not a
// column/literal pair. The literal may be NULL and op is b's operator
// whatever it is; callers switch on the ones they handle.
func ColConstCmp(b *Bin) (col *ColRef, lit types.Value, op string, ok bool) {
	if c, isCol := b.L.(*ColRef); isCol {
		if k, isLit := b.R.(*Const); isLit {
			return c, k.Val, b.Op, true
		}
		return nil, types.Value{}, "", false
	}
	c, isCol := b.R.(*ColRef)
	k, isLit := b.L.(*Const)
	if !isCol || !isLit {
		return nil, types.Value{}, "", false
	}
	op = b.Op
	switch op {
	case "<":
		op = ">"
	case "<=":
		op = ">="
	case ">":
		op = "<"
	case ">=":
		op = "<="
	}
	return c, k.Val, op, true
}

// AndAll re-joins conjuncts (nil for the empty set).
func AndAll(conj []Expr) Expr {
	var out Expr
	for _, c := range conj {
		if out == nil {
			out = c
		} else {
			out = &Bin{Op: "AND", L: out, R: c, Typ: types.TBool}
		}
	}
	return out
}

// RemapColumns returns a copy of e with every column reference replaced
// per the mapping; references absent from the map are kept.
func RemapColumns(e Expr, m map[types.ColumnID]types.ColumnID) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok {
			if to, ok := m[c.ID]; ok {
				return &ColRef{ID: to, Typ: c.Typ}
			}
		}
		return x
	})
}

// SubstituteColumns returns a copy of e with column references replaced
// by arbitrary expressions; references absent from the map are kept.
func SubstituteColumns(e Expr, m map[types.ColumnID]Expr) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok {
			if to, ok := m[c.ID]; ok {
				return to
			}
		}
		return x
	})
}

// RewriteExpr rebuilds the expression bottom-up, applying fn to every
// node (children first).
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *ColRef, *Const:
		return fn(e)
	case *Bin:
		return fn(&Bin{Op: e.Op, L: RewriteExpr(e.L, fn), R: RewriteExpr(e.R, fn), Typ: e.Typ})
	case *Un:
		return fn(&Un{Op: e.Op, E: RewriteExpr(e.E, fn), Typ: e.Typ})
	case *IsNullExpr:
		return fn(&IsNullExpr{E: RewriteExpr(e.E, fn), Not: e.Not})
	case *InListExpr:
		list := make([]Expr, len(e.List))
		for i, x := range e.List {
			list[i] = RewriteExpr(x, fn)
		}
		return fn(&InListExpr{E: RewriteExpr(e.E, fn), List: list, Not: e.Not})
	case *Func:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = RewriteExpr(a, fn)
		}
		return fn(&Func{Name: e.Name, Args: args, Typ: e.Typ})
	case *Case:
		whens := make([]CaseArm, len(e.Whens))
		for i, w := range e.Whens {
			whens[i] = CaseArm{Cond: RewriteExpr(w.Cond, fn), Then: RewriteExpr(w.Then, fn)}
		}
		return fn(&Case{Whens: whens, Else: RewriteExpr(e.Else, fn), Typ: e.Typ})
	}
	panic(fmt.Sprintf("plan: RewriteExpr: unknown expr %T", e))
}

// ExprKey returns a canonical string for structural comparison of bound
// expressions (used to match GROUP BY expressions against select items
// and to compare filter conjuncts for subsumption).
func ExprKey(e Expr) string {
	var b strings.Builder
	writeExprKey(e, &b)
	return b.String()
}

func writeExprKey(e Expr, b *strings.Builder) {
	switch e := e.(type) {
	case nil:
		b.WriteString("∅")
	case *ColRef:
		fmt.Fprintf(b, "c%d", e.ID)
	case *Const:
		b.WriteString("k")
		b.WriteString(e.Val.Key())
	case *Bin:
		l, r := ExprKey(e.L), ExprKey(e.R)
		op := e.Op
		// Canonicalize commutative operators so a=b matches b=a.
		switch op {
		case "=", "<>", "+", "*", "AND", "OR":
			if r < l {
				l, r = r, l
			}
		case ">":
			op, l, r = "<", r, l
		case ">=":
			op, l, r = "<=", r, l
		}
		fmt.Fprintf(b, "(%s %s %s)", l, op, r)
	case *Un:
		fmt.Fprintf(b, "(%s %s)", e.Op, ExprKey(e.E))
	case *IsNullExpr:
		if e.Not {
			fmt.Fprintf(b, "(%s ISNOTNULL)", ExprKey(e.E))
		} else {
			fmt.Fprintf(b, "(%s ISNULL)", ExprKey(e.E))
		}
	case *InListExpr:
		fmt.Fprintf(b, "(%s IN", ExprKey(e.E))
		if e.Not {
			b.WriteString(" NOT")
		}
		for _, x := range e.List {
			b.WriteByte(' ')
			writeExprKey(x, b)
		}
		b.WriteByte(')')
	case *Func:
		fmt.Fprintf(b, "(%s", e.Name)
		for _, a := range e.Args {
			b.WriteByte(' ')
			writeExprKey(a, b)
		}
		b.WriteByte(')')
	case *Case:
		b.WriteString("(CASE")
		for _, w := range e.Whens {
			fmt.Fprintf(b, " [%s->%s]", ExprKey(w.Cond), ExprKey(w.Then))
		}
		if e.Else != nil {
			fmt.Fprintf(b, " else %s", ExprKey(e.Else))
		}
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("plan: ExprKey: unknown expr %T", e))
	}
}

// ExprString renders the expression for plan display, resolving column
// names through the context (ctx may be nil).
func ExprString(ctx *Context, e Expr) string {
	switch e := e.(type) {
	case nil:
		return "<nil>"
	case *ColRef:
		if ctx != nil {
			return fmt.Sprintf("%s#%d", ctx.Name(e.ID), e.ID)
		}
		return fmt.Sprintf("#%d", e.ID)
	case *Const:
		if e.Val.Typ == types.TString {
			return "'" + e.Val.Str() + "'"
		}
		return e.Val.String()
	case *Bin:
		return "(" + ExprString(ctx, e.L) + " " + e.Op + " " + ExprString(ctx, e.R) + ")"
	case *Un:
		return e.Op + " " + ExprString(ctx, e.E)
	case *IsNullExpr:
		if e.Not {
			return ExprString(ctx, e.E) + " IS NOT NULL"
		}
		return ExprString(ctx, e.E) + " IS NULL"
	case *InListExpr:
		var parts []string
		for _, x := range e.List {
			parts = append(parts, ExprString(ctx, x))
		}
		op := " IN ("
		if e.Not {
			op = " NOT IN ("
		}
		return ExprString(ctx, e.E) + op + strings.Join(parts, ", ") + ")"
	case *Func:
		var parts []string
		for _, a := range e.Args {
			parts = append(parts, ExprString(ctx, a))
		}
		return e.Name + "(" + strings.Join(parts, ", ") + ")"
	case *Case:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range e.Whens {
			fmt.Fprintf(&b, " WHEN %s THEN %s", ExprString(ctx, w.Cond), ExprString(ctx, w.Then))
		}
		if e.Else != nil {
			fmt.Fprintf(&b, " ELSE %s", ExprString(ctx, e.Else))
		}
		b.WriteString(" END")
		return b.String()
	}
	return fmt.Sprintf("<%T>", e)
}

// TrueExpr is the constant TRUE.
func TrueExpr() Expr { return &Const{Val: types.NewBool(true)} }

// FalseExpr is the constant FALSE.
func FalseExpr() Expr { return &Const{Val: types.NewBool(false)} }

// IsConstBool reports whether e is the given boolean constant.
func IsConstBool(e Expr, val bool) bool {
	c, ok := e.(*Const)
	return ok && !c.Val.IsNull() && c.Val.Typ == types.TBool && c.Val.Bool() == val
}

// EqualExprs reports structural equality of two bound expressions.
func EqualExprs(a, b Expr) bool { return ExprKey(a) == ExprKey(b) }
