package exec

import (
	"fmt"
	"strings"

	"vdm/internal/decimal"
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Typed expression kernels over column batches. compileVecExpr turns a
// plan expression into a tree of vecExpr nodes, each evaluating one
// batch at a time into a reusable output vector. The compiled tree is
// immutable; all mutable state (output vectors, selection scratch)
// lives in vecScratch, indexed by compile-time slot numbers.
//
// Only total expressions compile (compileVecExpr is the admission
// rule), so evaluation can be eager and out of order: the batch path may
// evaluate a CASE arm or an AND operand on rows the row path would have
// skipped, which is observable only through errors — and total kernels
// have none. Each kernel replicates the row evaluator's exact semantics:
// Arith's promotion ladder, types.Compare's ladder, three-valued AND/OR
// (x AND y is FALSE whenever either side is non-NULL FALSE, even if the
// other is NULL), and callScalar's per-function NULL handling.
type vecExpr interface {
	// eval computes the expression over the batch's rows listed in sel
	// (always non-nil) and returns the result vector, valid at exactly
	// those positions. The returned vector is owned by the scratch (or
	// aliases a batch column) and is valid until the next fill.
	eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec
}

// vecCompute is one computed projection column: evaluate expr, publish
// the result as batch column dst.
type vecCompute struct {
	expr vecExpr
	dst  int
}

// resetComputed prepares a scratch vector for n computed values of type
// t, routing strings to the materialized-string layout (computed strings
// have no dictionary).
func resetComputed(v *types.Vec, t types.Type, n int) {
	if t == types.TString {
		v.ResetStrings(n)
	} else {
		v.Reset(t, n)
	}
}

// copyVecVal copies row i from src to dst. dst and src hold the same
// type wherever src is non-NULL (the CASE compiler enforces arm-type
// agreement), so only dst's layout is consulted.
func copyVecVal(dst, src *types.Vec, i int) {
	if src.NullAt(i) {
		dst.SetNull(i)
		return
	}
	switch dst.Typ {
	case types.TString:
		dst.Strs[i] = src.StrAt(i)
	case types.TFloat:
		dst.F64[i] = src.F64[i]
	case types.TDecimal:
		dst.I64[i], dst.Scale[i] = src.I64[i], src.Scale[i]
	default:
		dst.I64[i] = src.I64[i]
	}
}

// setVecValue scatters a boxed value into row i of a computed vector.
func setVecValue(dst *types.Vec, i int, val types.Value) {
	if val.IsNull() {
		dst.SetNull(i)
		return
	}
	switch dst.Typ {
	case types.TString:
		dst.Strs[i] = val.Str()
	case types.TFloat:
		dst.F64[i] = val.Float()
	case types.TDecimal:
		d := val.Decimal()
		dst.I64[i], dst.Scale[i] = d.Coef, d.Scale
	default:
		dst.I64[i] = val.Int()
	}
}

// decAt reads row i as a decimal, promoting ints exactly like
// Value.Decimal (scale 0).
func decAt(v *types.Vec, i int) decimal.Decimal {
	if v.Typ == types.TDecimal {
		return decimal.Decimal{Coef: v.I64[i], Scale: v.Scale[i]}
	}
	return decimal.Decimal{Coef: v.I64[i]}
}

// floatAt reads row i as a float64, replicating Value.Float's
// conversions (ints, dates, and bools widen; decimals round).
func floatAt(v *types.Vec, i int) float64 {
	switch v.Typ {
	case types.TFloat:
		return v.F64[i]
	case types.TDecimal:
		return (decimal.Decimal{Coef: v.I64[i], Scale: v.Scale[i]}).Float64()
	}
	return float64(v.I64[i])
}

// --- leaf kernels -------------------------------------------------------

// veCol returns a batch column as-is.
type veCol struct{ col int }

func (e *veCol) eval(b *Batch, _ []int32, _ *vecScratch) *types.Vec { return &b.Cols[e.col] }

// veConst broadcasts a non-NULL literal to the selected rows.
type veConst struct {
	val  types.Value
	slot int
}

func (e *veConst) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	out := &sc.exprVecs[e.slot]
	resetComputed(out, e.val.Typ, b.N)
	for _, i := range sel {
		setVecValue(out, int(i), e.val)
	}
	return out
}

// veNullConst is an all-NULL vector of a fixed type — a NULL literal, or
// an operator whose result is statically NULL (e.g. arithmetic with a
// NULL operand), matching the row path's typed-NULL result.
type veNullConst struct {
	typ  types.Type
	slot int
}

func (e *veNullConst) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	out := &sc.exprVecs[e.slot]
	resetComputed(out, e.typ, b.N)
	for _, i := range sel {
		out.SetNull(int(i))
	}
	return out
}

// --- arithmetic ---------------------------------------------------------

// Arithmetic kernel kinds, one per branch of Arith's promotion ladder.
const (
	aI64 uint8 = iota // int + int → int
	aF64              // either float → float
	aDec              // either decimal (no float) → decimal
)

// arithType replicates Arith's promotion ladder for the total operators
// (+ - *), returning the result type when the operand pair can never
// error: float promotion accepts anything Float() converts, the decimal
// ladder accepts int and decimal, and the int ladder stays int. Division
// has no kernel (division by zero is a runtime error).
func arithType(a, b types.Type) (types.Type, bool) {
	floatable := func(t types.Type) bool {
		switch t {
		case types.TInt, types.TFloat, types.TDecimal, types.TDate, types.TBool:
			return true
		}
		return false
	}
	if a == types.TFloat || b == types.TFloat {
		return types.TFloat, floatable(a) && floatable(b)
	}
	decable := func(t types.Type) bool { return t == types.TInt || t == types.TDecimal }
	if a == types.TDecimal || b == types.TDecimal {
		return types.TDecimal, decable(a) && decable(b)
	}
	return types.TInt, a == types.TInt && b == types.TInt
}

type veArith struct {
	op   byte // '+', '-', '*'
	kind uint8
	l, r vecExpr
	typ  types.Type
	slot int
}

func (e *veArith) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	lv := e.l.eval(b, sel, sc)
	rv := e.r.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	resetComputed(out, e.typ, b.N)
	ln, rn := len(lv.Nulls) > 0, len(rv.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		if (ln && lv.NullAt(i)) || (rn && rv.NullAt(i)) {
			out.SetNull(i)
			continue
		}
		switch e.kind {
		case aI64:
			x, y := lv.I64[i], rv.I64[i]
			switch e.op {
			case '+':
				out.I64[i] = x + y
			case '-':
				out.I64[i] = x - y
			default:
				out.I64[i] = x * y
			}
		case aF64:
			x, y := floatAt(lv, i), floatAt(rv, i)
			switch e.op {
			case '+':
				out.F64[i] = x + y
			case '-':
				out.F64[i] = x - y
			default:
				out.F64[i] = x * y
			}
		default:
			x, y := decAt(lv, i), decAt(rv, i)
			var d decimal.Decimal
			switch e.op {
			case '+':
				d = x.Add(y)
			case '-':
				d = x.Sub(y)
			default:
				d = x.Mul(y)
			}
			out.I64[i], out.Scale[i] = d.Coef, d.Scale
		}
	}
	return out
}

// veNeg is unary minus.
type veNeg struct {
	e    vecExpr
	typ  types.Type
	slot int
}

func (e *veNeg) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	v := e.e.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	resetComputed(out, e.typ, b.N)
	hn := len(v.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		if hn && v.NullAt(i) {
			out.SetNull(i)
			continue
		}
		switch e.typ {
		case types.TFloat:
			out.F64[i] = -v.F64[i]
		case types.TDecimal:
			out.I64[i], out.Scale[i] = -v.I64[i], v.Scale[i]
		default:
			out.I64[i] = -v.I64[i]
		}
	}
	return out
}

// --- comparisons --------------------------------------------------------

// Comparison kernel kinds, one per branch of types.Compare's ladder.
const (
	ckI64 uint8 = iota // same-type int/date, or bool/bool
	ckF64              // mixed numeric → float64
	ckDec              // decimal vs decimal
	ckStr              // string vs string
)

// cmpKind picks the comparison kernel for a static type pair, or
// declines the pairs types.Compare rejects — so a compiled comparison
// can never hit the type error the row path would raise.
func cmpKind(a, b types.Type) (uint8, bool) {
	switch {
	case a == types.TString && b == types.TString:
		return ckStr, true
	case a == types.TBool && b == types.TBool:
		return ckI64, true
	case a == b && (a == types.TInt || a == types.TDate):
		return ckI64, true
	case a == types.TDecimal && b == types.TDecimal:
		return ckDec, true
	case types.Numeric(a) && types.Numeric(b):
		// Mixed numeric types compare as float64, exactly the
		// types.Compare fallback.
		return ckF64, true
	}
	return 0, false
}

// wantFor maps a comparison operator to the keep-mask over the
// comparison sign (-1, 0, +1).
func wantFor(op string) ([3]bool, bool) {
	switch op {
	case "=":
		return [3]bool{false, true, false}, true
	case "<>":
		return [3]bool{true, false, true}, true
	case "<":
		return [3]bool{true, false, false}, true
	case "<=":
		return [3]bool{true, true, false}, true
	case ">":
		return [3]bool{false, false, true}, true
	case ">=":
		return [3]bool{false, true, true}, true
	}
	return [3]bool{}, false
}

// veCmp compares two operands on types.Compare's ladder. A non-NULL
// literal operand is read in place from lit, a one-row vector built at
// compile time, instead of being broadcast per batch; the compiler puts
// it on the right (r nil). A dictionary-coded string compared with a
// literal decides once per code through its code memo.
type veCmp struct {
	kind uint8
	want [3]bool // keep-mask over comparison sign (-1, 0, +1)
	l, r vecExpr
	lit  types.Vec // the right operand when r is nil
	memo int       // code memo of a string comparison with a literal
	slot int
}

func (e *veCmp) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	lv := e.l.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	out.Reset(types.TBool, b.N)
	// The right operand's row j is i*step: row 0 of a literal.
	rv, step := &e.lit, 0
	if e.r != nil {
		rv, step = e.r.eval(b, sel, sc), 1
	} else if e.kind == ckStr && len(lv.Strs) == 0 {
		lit := e.lit.Strs[0]
		byCode(lv, out, sel, &sc.memos[e.memo], func(s string) int8 {
			return b2i8(e.want[signIdx(strings.Compare(s, lit))])
		})
		return out
	}
	keep := [3]int64{b2i(e.want[0]), b2i(e.want[1]), b2i(e.want[2])}
	kind, res, li, ri := e.kind, out.I64, lv.I64, rv.I64
	ln, rn := len(lv.Nulls) > 0, len(rv.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		j := i * step
		if (ln && lv.NullAt(i)) || (rn && rv.NullAt(j)) {
			out.SetNull(i)
			continue
		}
		var s int8
		switch kind {
		case ckI64:
			s = cmpSign(li[i], ri[j])
		case ckDec:
			if lv.Scale[i] == rv.Scale[j] {
				s = cmpSign(li[i], ri[j])
			} else {
				s = signIdx(decAt(lv, i).Cmp(decAt(rv, j)))
			}
		case ckStr:
			s = signIdx(strings.Compare(lv.StrAt(i), rv.StrAt(j)))
		default:
			s = cmpSign(floatAt(lv, i), floatAt(rv, j))
		}
		res[i] = keep[s]
	}
	return out
}

// cmpSign is the comparison sign of x against y as a keep-mask index.
func cmpSign[T int64 | float64](x, y T) int8 {
	switch {
	case x < y:
		return 0
	case x > y:
		return 2
	}
	return 1
}

func signIdx(c int) int8 { return cmpSign(int64(c), 0) }

// byCode writes a three-valued outcome (1 TRUE, 0 FALSE, -1 NULL) for
// the selected rows of a dictionary-coded string vector into out,
// deciding once per distinct code per dictionary view through memo m.
// NULL rows are NULL.
func byCode(v, out *types.Vec, sel []int32, m *codeMemo, outcome func(string) int8) {
	m.nextView(v.Dict)
	hn := len(v.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		if hn && v.NullAt(i) {
			out.SetNull(i)
			continue
		}
		code := v.Codes[i]
		r, ok := m.get(code)
		if !ok {
			r = outcome(v.Dict.Decode(code))
			m.put(code, r)
		}
		setTri(out, i, r)
	}
}

// setTri stores a three-valued outcome in row i of a bool vector.
func setTri(out *types.Vec, i int, r int8) {
	if r < 0 {
		out.SetNull(i)
		return
	}
	out.I64[i] = int64(r)
}

// --- boolean connectives ------------------------------------------------

// veBool is eager three-valued AND/OR. Eager evaluation of both sides is
// indistinguishable from the row path's short-circuit because admitted
// operands are total.
type veBool struct {
	and  bool
	l, r vecExpr
	slot int
}

func (e *veBool) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	lv := e.l.eval(b, sel, sc)
	rv := e.r.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	out.Reset(types.TBool, b.N)
	ln, rn := len(lv.Nulls) > 0, len(rv.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		lnull := ln && lv.NullAt(i)
		rnull := rn && rv.NullAt(i)
		if e.and {
			// FALSE dominates NULL: x AND y is FALSE whenever either
			// side is non-NULL FALSE.
			if (!lnull && lv.I64[i] == 0) || (!rnull && rv.I64[i] == 0) {
				out.I64[i] = 0
				continue
			}
			if lnull || rnull {
				out.SetNull(i)
				continue
			}
			out.I64[i] = 1
		} else {
			if (!lnull && lv.I64[i] != 0) || (!rnull && rv.I64[i] != 0) {
				out.I64[i] = 1
				continue
			}
			if lnull || rnull {
				out.SetNull(i)
				continue
			}
			out.I64[i] = 0
		}
	}
	return out
}

type veNot struct {
	e    vecExpr
	slot int
}

func (e *veNot) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	v := e.e.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	out.Reset(types.TBool, b.N)
	hn := len(v.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		if hn && v.NullAt(i) {
			out.SetNull(i)
			continue
		}
		if v.I64[i] == 0 {
			out.I64[i] = 1
		} else {
			out.I64[i] = 0
		}
	}
	return out
}

// --- predicates ---------------------------------------------------------

type veIsNull struct {
	e    vecExpr
	not  bool
	slot int
}

func (e *veIsNull) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	v := e.e.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	out.Reset(types.TBool, b.N)
	for _, si := range sel {
		i := int(si)
		if v.NullAt(i) != e.not {
			out.I64[i] = 1
		} else {
			out.I64[i] = 0
		}
	}
	return out
}

type veIn struct {
	e           vecExpr
	list        []types.Value // non-NULL constant elements
	sawNullElem bool
	not         bool
	memo        int // code memo for a dictionary-coded operand
	slot        int
}

// outcome is IN's three-valued result for a non-NULL value: a match is
// TRUE unless negated; no match is NULL when the list held a NULL, else
// TRUE only under NOT IN.
func (e *veIn) outcome(val types.Value) int8 {
	for _, x := range e.list {
		if types.Equal(val, x) {
			return b2i8(!e.not)
		}
	}
	if e.sawNullElem {
		return -1
	}
	return b2i8(e.not)
}

func (e *veIn) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	v := e.e.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	out.Reset(types.TBool, b.N)
	if v.Typ == types.TString && len(v.Strs) == 0 {
		byCode(v, out, sel, &sc.memos[e.memo], func(s string) int8 { return e.outcome(types.NewString(s)) })
		return out
	}
	for _, si := range sel {
		i := int(si)
		if v.NullAt(i) {
			out.SetNull(i)
			continue
		}
		setTri(out, i, e.outcome(v.Value(i)))
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func b2i8(b bool) int8 { return int8(b2i(b)) }

// --- strings ------------------------------------------------------------

type veConcat struct {
	l, r vecExpr
	slot int
}

// vecValueString renders row i exactly like Value.String (raw payload
// for strings, formatted rendering otherwise), used by || and CONCAT.
func vecValueString(v *types.Vec, i int) string {
	if v.Typ == types.TString {
		return v.StrAt(i)
	}
	return v.Value(i).String()
}

func (e *veConcat) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	lv := e.l.eval(b, sel, sc)
	rv := e.r.eval(b, sel, sc)
	out := &sc.exprVecs[e.slot]
	out.ResetStrings(b.N)
	ln, rn := len(lv.Nulls) > 0, len(rv.Nulls) > 0
	for _, si := range sel {
		i := int(si)
		if (ln && lv.NullAt(i)) || (rn && rv.NullAt(i)) {
			out.SetNull(i)
			continue
		}
		out.Strs[i] = vecValueString(lv, i) + vecValueString(rv, i)
	}
	return out
}

// --- CASE ---------------------------------------------------------------

type veCaseArm struct{ cond, then vecExpr }

// veCase partitions the selection arm by arm: rows whose condition is
// non-NULL TRUE take the arm (its Then evaluated only on those rows,
// like the row path's lazy arm evaluation), the rest flow to the next
// arm and finally to ELSE (or NULL). Uses three scratch selection
// buffers: taken + rest ping-pong.
type veCase struct {
	arms    []veCaseArm
	els     vecExpr // nil → NULL
	typ     types.Type
	slot    int
	bufBase int
}

func (e *veCase) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	out := &sc.exprVecs[e.slot]
	resetComputed(out, e.typ, b.N)
	rest := sel
	pp := 0
	for _, a := range e.arms {
		if len(rest) == 0 {
			break
		}
		cv := a.cond.eval(b, rest, sc)
		cn := len(cv.Nulls) > 0
		taken := sc.selBufs[e.bufBase][:0]
		next := sc.selBufs[e.bufBase+1+pp][:0]
		for _, i := range rest {
			if (!cn || !cv.NullAt(int(i))) && cv.I64[i] != 0 {
				taken = append(taken, i)
			} else {
				next = append(next, i)
			}
		}
		sc.selBufs[e.bufBase] = taken
		sc.selBufs[e.bufBase+1+pp] = next
		if len(taken) > 0 {
			tv := a.then.eval(b, taken, sc)
			for _, i := range taken {
				copyVecVal(out, tv, int(i))
			}
		}
		rest = next
		pp = 1 - pp
	}
	if len(rest) > 0 {
		if e.els != nil {
			ev := e.els.eval(b, rest, sc)
			for _, i := range rest {
				copyVecVal(out, ev, int(i))
			}
		} else {
			for _, i := range rest {
				out.SetNull(int(i))
			}
		}
	}
	return out
}

// --- scalar functions ---------------------------------------------------

// veFunc evaluates its argument vectors, then boxes one row at a time
// through callScalar — the row path's own implementation — so every
// per-function NULL and clamping rule is shared, not replicated.
// Admission (vecFuncType) guarantees callScalar's error paths are
// unreachable for the compiled argument types.
type veFunc struct {
	name string
	args []vecExpr
	typ  types.Type
	slot int
}

func (e *veFunc) eval(b *Batch, sel []int32, sc *vecScratch) *types.Vec {
	avs := make([]*types.Vec, len(e.args))
	for k, a := range e.args {
		avs[k] = a.eval(b, sel, sc)
	}
	out := &sc.exprVecs[e.slot]
	resetComputed(out, e.typ, b.N)
	vals := make([]types.Value, len(e.args))
	for _, si := range sel {
		i := int(si)
		for k := range avs {
			vals[k] = avs[k].Value(i)
		}
		v, err := callScalar(e.name, e.typ, vals)
		if err != nil {
			// Statically unreachable: admission only compiles total
			// calls. The engine's panic isolation reports it as a query
			// error if an admission bug ever lets one through.
			panic(fmt.Sprintf("exec: vectorized %s raised %v", e.name, err))
		}
		setVecValue(out, i, v)
	}
	return out
}

// vecFuncType is the totality table for scalar functions: it admits a
// call, given its arguments' static types, only when callScalar can
// never return an error for values of those types, and returns the
// call's static result type.
func vecFuncType(e *plan.Func, argTyps []types.Type) (types.Type, bool) {
	n := len(argTyps)
	is := func(i int, want types.Type) bool { return typedAs(e.Args[i], argTyps[i], want) }
	switch e.Name {
	case "ROUND", "ABS":
		if n == 0 || n > 2 || (e.Name == "ABS" && n != 1) || argTyps[0] != e.Typ {
			return 0, false
		}
		switch e.Typ {
		case types.TInt, types.TFloat, types.TDecimal:
			return e.Typ, n == 1 || is(1, types.TInt)
		}
	case "FLOOR", "CEIL":
		if n != 1 {
			return 0, false
		}
		switch argTyps[0] {
		case types.TInt, types.TFloat, types.TDecimal, types.TDate, types.TBool, types.TNull:
			return types.TInt, true
		}
	case "COALESCE", "IFNULL":
		if n == 0 || (e.Name == "IFNULL" && n != 2) {
			return 0, false
		}
		for i := range argTyps {
			if !is(i, e.Typ) {
				return 0, false
			}
		}
		return e.Typ, true
	case "NULLIF":
		return e.Typ, n == 2 && is(0, e.Typ)
	case "UPPER", "LOWER":
		return types.TString, n == 1 && is(0, types.TString)
	case "LENGTH":
		return types.TInt, n == 1 && is(0, types.TString)
	case "SUBSTR":
		ok := (n == 2 || n == 3) && is(0, types.TString) && is(1, types.TInt) && (n == 2 || is(2, types.TInt))
		return types.TString, ok
	case "CONCAT":
		return types.TString, n > 0
	}
	return 0, false
}

// --- compiler -----------------------------------------------------------

// newSlot allocates a scratch output vector for one kernel.
func (f *vecFrag) newSlot() int {
	s := f.spec.nSlots
	f.spec.nSlots++
	return s
}

// newMemo allocates a dictionary-code memo table for one kernel.
func (f *vecFrag) newMemo() int {
	m := f.spec.nMemos
	f.spec.nMemos++
	return m
}

// isNullConst reports whether e is a literal NULL, which satisfies any
// required operand type (the kernels emit a typed NULL of the output
// vector's type, and downstream semantics never distinguish NULL types).
func isNullConst(e plan.Expr) bool {
	c, ok := e.(*plan.Const)
	return ok && c.Val.IsNull()
}

// typedAs reports whether operand e, compiled to static type t, can
// stand where the row evaluator expects a value of type want.
func typedAs(e plan.Expr, t, want types.Type) bool {
	return t == want || isNullConst(e)
}

// inListConsts splits an IN list of literals into its non-NULL elements
// and whether a NULL was among them; ok is false when any element is
// not a literal.
func inListConsts(list []plan.Expr) (vals []types.Value, sawNull, ok bool) {
	for _, x := range list {
		k, isLit := x.(*plan.Const)
		if !isLit {
			return nil, false, false
		}
		if k.Val.IsNull() {
			sawNull = true
			continue
		}
		vals = append(vals, k.Val)
	}
	return vals, sawNull, true
}

// compileVecExpr compiles an expression into a kernel tree and returns
// it with its static result type, or declines. It is the admission rule:
// an expression vectorizes iff it compiles, and it compiles only when it
// is total — it can never raise a runtime error for any input — under
// the row evaluator's own typing: arithmetic follows Arith's ladder (no
// division), comparisons follow types.Compare's, CASE arms must already
// produce the CASE's type (the row path returns an arm's value as-is),
// and scalar functions are admitted per function (vecFuncType). A NULL
// literal has static type TNull. Declines mean the enclosing operator
// falls back to the row path, which is always safe.
func (f *vecFrag) compileVecExpr(e plan.Expr) (vecExpr, types.Type, bool) {
	switch e := e.(type) {
	case *plan.ColRef:
		bc, ok := f.batchCol(e.ID)
		if !ok {
			return nil, 0, false
		}
		return &veCol{col: bc}, e.Typ, true

	case *plan.Const:
		if e.Val.IsNull() {
			return &veNullConst{typ: e.Val.Typ, slot: f.newSlot()}, types.TNull, true
		}
		return &veConst{val: e.Val, slot: f.newSlot()}, e.Val.Typ, true

	case *plan.Bin:
		return f.compileVecBin(e)

	case *plan.Un:
		inner, t, ok := f.compileVecExpr(e.E)
		if !ok {
			return nil, 0, false
		}
		if e.Op == "NOT" {
			if t != types.TBool && t != types.TNull {
				return nil, 0, false
			}
			return &veNot{e: inner, slot: f.newSlot()}, types.TBool, true
		}
		switch t {
		case types.TNull:
			// -NULL is NULL of the operand's (null) type, as the row
			// path's NewNull(v.Typ).
			return &veNullConst{typ: types.TNull, slot: f.newSlot()}, e.Typ, true
		case types.TInt, types.TFloat, types.TDecimal:
			return &veNeg{e: inner, typ: t, slot: f.newSlot()}, t, true
		}
		return nil, 0, false

	case *plan.IsNullExpr:
		inner, _, ok := f.compileVecExpr(e.E)
		if !ok {
			return nil, 0, false
		}
		return &veIsNull{e: inner, not: e.Not, slot: f.newSlot()}, types.TBool, true

	case *plan.InListExpr:
		inner, _, ok := f.compileVecExpr(e.E)
		if !ok {
			return nil, 0, false
		}
		list, sawNull, ok := inListConsts(e.List)
		if !ok {
			return nil, 0, false
		}
		return &veIn{e: inner, list: list, sawNullElem: sawNull, not: e.Not, memo: f.newMemo(), slot: f.newSlot()}, types.TBool, true

	case *plan.Case:
		c := &veCase{typ: e.Typ, slot: f.newSlot(), bufBase: f.spec.nBufs}
		f.spec.nBufs += 3
		for _, w := range e.Whens {
			cond, ct, ok := f.compileVecExpr(w.Cond)
			if !ok || !typedAs(w.Cond, ct, types.TBool) {
				return nil, 0, false
			}
			then, tt, ok := f.compileVecExpr(w.Then)
			if !ok || !typedAs(w.Then, tt, e.Typ) {
				return nil, 0, false
			}
			c.arms = append(c.arms, veCaseArm{cond: cond, then: then})
		}
		if e.Else != nil {
			els, et, ok := f.compileVecExpr(e.Else)
			if !ok || !typedAs(e.Else, et, e.Typ) {
				return nil, 0, false
			}
			c.els = els
		}
		return c, e.Typ, true

	case *plan.Func:
		fn := &veFunc{name: e.Name, typ: e.Typ, args: make([]vecExpr, len(e.Args))}
		argTyps := make([]types.Type, len(e.Args))
		for i, a := range e.Args {
			var ok bool
			if fn.args[i], argTyps[i], ok = f.compileVecExpr(a); !ok {
				return nil, 0, false
			}
		}
		t, ok := vecFuncType(e, argTyps)
		if !ok {
			return nil, 0, false
		}
		fn.slot = f.newSlot()
		return fn, t, true
	}
	return nil, 0, false
}

func (f *vecFrag) compileVecBin(e *plan.Bin) (vecExpr, types.Type, bool) {
	if want, ok := wantFor(e.Op); ok {
		return f.compileVecCmp(e, want)
	}
	l, lt, ok := f.compileVecExpr(e.L)
	if !ok {
		return nil, 0, false
	}
	r, rt, ok := f.compileVecExpr(e.R)
	if !ok {
		return nil, 0, false
	}
	nullOperand := lt == types.TNull || rt == types.TNull
	switch e.Op {
	case "+", "-", "*":
		if nullOperand {
			// The result is always NULL of e.Typ.
			return &veNullConst{typ: e.Typ, slot: f.newSlot()}, e.Typ, true
		}
		t, ok := arithType(lt, rt)
		if !ok || t != e.Typ {
			return nil, 0, false
		}
		a := &veArith{op: e.Op[0], l: l, r: r, typ: t, slot: f.newSlot()}
		switch t {
		case types.TInt:
			a.kind = aI64
		case types.TFloat:
			a.kind = aF64
		default:
			a.kind = aDec
		}
		return a, t, true

	case "AND", "OR":
		if !typedAs(e.L, lt, types.TBool) || !typedAs(e.R, rt, types.TBool) {
			return nil, 0, false
		}
		return &veBool{and: e.Op == "AND", l: l, r: r, slot: f.newSlot()}, types.TBool, true

	case "||":
		// String() renders every type, so concat is total.
		if nullOperand {
			return &veNullConst{typ: types.TString, slot: f.newSlot()}, types.TString, true
		}
		return &veConcat{l: l, r: r, slot: f.newSlot()}, types.TString, true
	}
	return nil, 0, false
}

// compileVecCmp compiles a comparison with keep-mask want. A non-NULL
// literal operand becomes the kernel's in-place literal, moved to the
// right (the mask mirrored when it was on the left); a string compared
// with a literal gets a code memo.
func (f *vecFrag) compileVecCmp(e *plan.Bin, want [3]bool) (vecExpr, types.Type, bool) {
	isLit := func(x plan.Expr) bool { k, ok := x.(*plan.Const); return ok && !k.Val.IsNull() }
	lx, rx := e.L, e.R
	if isLit(lx) && !isLit(rx) {
		lx, rx, want = rx, lx, [3]bool{want[2], want[1], want[0]}
	}
	l, lt, ok := f.compileVecExpr(lx)
	if !ok {
		return nil, 0, false
	}
	c := &veCmp{want: want, l: l}
	var rt types.Type
	if isLit(rx) {
		v := rx.(*plan.Const).Val
		rt = v.Typ
		resetComputed(&c.lit, rt, 1)
		setVecValue(&c.lit, 0, v)
	} else if c.r, rt, ok = f.compileVecExpr(rx); !ok {
		return nil, 0, false
	}
	if lt == types.TNull || rt == types.TNull {
		// The comparison is NULL for every row, which is total.
		return &veNullConst{typ: types.TBool, slot: f.newSlot()}, types.TBool, true
	}
	if c.kind, ok = cmpKind(lt, rt); !ok {
		return nil, 0, false
	}
	if c.kind == ckStr && c.r == nil {
		c.memo = f.newMemo()
	}
	c.slot = f.newSlot()
	return c, types.TBool, true
}
