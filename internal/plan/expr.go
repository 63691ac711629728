package plan

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
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

// Const is a literal. Slot is the statement parameter the literal was
// lifted into (sql.Fingerprint); 0 means the value is part of the plan.
// A plan whose Consts carry slots is a template: Instantiate re-binds it
// to another statement's literal values.
type Const struct {
	Val  types.Value
	Slot int
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

// RemapColumns returns e with every column reference replaced per the
// mapping; references absent from the map are kept. Like RewriteExpr,
// it shares every unchanged subtree with e.
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

// SubstituteColumns returns e with column references replaced by
// arbitrary expressions; references absent from the map are kept. Like
// RewriteExpr, it shares every unchanged subtree with e.
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
// node (children first). It copies on write: a node is rebuilt only when
// the rewrite of one of its children returned a different expression, so
// an fn that changes nothing returns e itself and the result shares every
// unchanged subtree with e. Expressions are immutable once built: fn must
// return a new node rather than modify its argument, and callers must not
// modify the result in place.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *ColRef, *Const:
		return fn(e)
	case *Bin:
		if l, r := RewriteExpr(e.L, fn), RewriteExpr(e.R, fn); l != e.L || r != e.R {
			e = &Bin{Op: e.Op, L: l, R: r, Typ: e.Typ}
		}
		return fn(e)
	case *Un:
		if x := RewriteExpr(e.E, fn); x != e.E {
			e = &Un{Op: e.Op, E: x, Typ: e.Typ}
		}
		return fn(e)
	case *IsNullExpr:
		if x := RewriteExpr(e.E, fn); x != e.E {
			e = &IsNullExpr{E: x, Not: e.Not}
		}
		return fn(e)
	case *InListExpr:
		x, list := RewriteExpr(e.E, fn), rewriteExprs(e.List, fn)
		if x != e.E || list != nil {
			if list == nil {
				list = e.List
			}
			e = &InListExpr{E: x, List: list, Not: e.Not}
		}
		return fn(e)
	case *Func:
		if args := rewriteExprs(e.Args, fn); args != nil {
			e = &Func{Name: e.Name, Args: args, Typ: e.Typ}
		}
		return fn(e)
	case *Case:
		var whens []CaseArm
		for i, w := range e.Whens {
			c, t := RewriteExpr(w.Cond, fn), RewriteExpr(w.Then, fn)
			if whens == nil && (c != w.Cond || t != w.Then) {
				whens = make([]CaseArm, len(e.Whens))
				copy(whens, e.Whens[:i])
			}
			if whens != nil {
				whens[i] = CaseArm{Cond: c, Then: t}
			}
		}
		if els := RewriteExpr(e.Else, fn); whens != nil || els != e.Else {
			if whens == nil {
				whens = e.Whens
			}
			e = &Case{Whens: whens, Else: els, Typ: e.Typ}
		}
		return fn(e)
	}
	panic(fmt.Sprintf("plan: RewriteExpr: unknown expr %T", e))
}

// rewriteExprs rewrites every expression of xs. It returns nil when none
// changed, else a new slice.
func rewriteExprs(xs []Expr, fn func(Expr) Expr) []Expr {
	var out []Expr
	for i, x := range xs {
		y := RewriteExpr(x, fn)
		if out == nil && y != x {
			out = make([]Expr, len(xs))
			copy(out, xs[:i])
		}
		if out != nil {
			out[i] = y
		}
	}
	return out
}

// ExprKey returns a canonical string for structural comparison of bound
// expressions (used to match GROUP BY expressions against select items
// and to compare filter conjuncts for subsumption).
func ExprKey(e Expr) string {
	return string(appendExprKey(make([]byte, 0, 64), e))
}

// appendExprKey appends e's key to b. Every operand key is written in
// place, so a commutative operator canonicalizes by comparing and, if
// need be, swapping two adjacent byte ranges rather than building operand
// strings.
func appendExprKey(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case nil:
		return append(b, "∅"...)
	case *ColRef:
		return strconv.AppendInt(append(b, 'c'), int64(e.ID), 10)
	case *Const:
		// A lifted literal is keyed by its slot, never by its value: two
		// slots compare equal in one instantiation only if they are one.
		if e.Slot > 0 {
			return strconv.AppendInt(append(b, '$'), int64(e.Slot), 10)
		}
		return e.Val.AppendKey(append(b, 'k'))
	case *Bin:
		b = append(b, '(')
		l := len(b)
		b = appendExprKey(b, e.L)
		r := len(b)
		b = appendExprKey(b, e.R)
		op, swap := e.Op, false
		// Canonicalize commutative operators so a=b matches b=a.
		switch op {
		case "=", "<>", "+", "*", "AND", "OR":
			swap = bytes.Compare(b[r:], b[l:r]) < 0
		case ">":
			op, swap = "<", true
		case ">=":
			op, swap = "<=", true
		}
		mid := r // where the first operand key ends
		if swap {
			rotateLeft(b[l:], r-l)
			mid = l + len(b) - r
		}
		var sep [8]byte
		b = slices.Insert(b, mid, append(append(append(sep[:0], ' '), op...), ' ')...)
		return append(b, ')')
	case *Un:
		b = append(append(append(b, '('), e.Op...), ' ')
		return append(appendExprKey(b, e.E), ')')
	case *IsNullExpr:
		b = appendExprKey(append(b, '('), e.E)
		if e.Not {
			return append(b, " ISNOTNULL)"...)
		}
		return append(b, " ISNULL)"...)
	case *InListExpr:
		b = append(appendExprKey(append(b, '('), e.E), " IN"...)
		if e.Not {
			b = append(b, " NOT"...)
		}
		for _, x := range e.List {
			b = appendExprKey(append(b, ' '), x)
		}
		return append(b, ')')
	case *Func:
		b = append(append(b, '('), e.Name...)
		for _, a := range e.Args {
			b = appendExprKey(append(b, ' '), a)
		}
		return append(b, ')')
	case *Case:
		b = append(b, "(CASE"...)
		for _, w := range e.Whens {
			b = appendExprKey(append(b, " ["...), w.Cond)
			b = appendExprKey(append(b, "->"...), w.Then)
			b = append(b, ']')
		}
		if e.Else != nil {
			b = appendExprKey(append(b, " else "...), e.Else)
		}
		return append(b, ')')
	}
	panic(fmt.Sprintf("plan: ExprKey: unknown expr %T", e))
}

// rotateLeft moves the first k bytes of b to its end, in place.
func rotateLeft(b []byte, k int) {
	slices.Reverse(b[:k])
	slices.Reverse(b[k:])
	slices.Reverse(b)
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
		if e.Slot > 0 {
			return "$" + strconv.Itoa(e.Slot)
		}
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
