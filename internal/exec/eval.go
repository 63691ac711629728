// Package exec implements the query executor over the columnar store:
// scans, filters, projections, hash joins, hash aggregation, sort,
// limit, union all, and distinct, plus the scalar expression evaluator
// with SQL three-valued logic.
//
// Two execution models share one Iterator contract. The row-at-a-time
// path pulls boxed rows operator by operator; the vectorized path
// (SetVectorize) compiles batch sources — scans and hash joins, with
// filter/project pipelines over them — and the aggregations, top-k
// heaps and DISTINCTs that consume them into kernels over fixed-size
// column batches of raw dictionary codes (Batch, types.Vec), adapting
// back to rows at the first ineligible operator. Both paths produce row- and
// order-identical results, each query on one goroutine; see
// docs/EXECUTION.md for the model, eligibility rules, and layout.
package exec

import (
	"fmt"
	"math"
	"strings"

	"vdm/internal/decimal"
	"vdm/internal/plan"
	"vdm/internal/types"
)

// EvalFn evaluates an expression against an input row.
type EvalFn func(row types.Row) (types.Value, error)

// Compile translates a bound expression into an evaluator. slots maps
// column IDs to positions in the input row.
func Compile(e plan.Expr, slots map[types.ColumnID]int) (EvalFn, error) {
	switch e := e.(type) {
	case *plan.ColRef:
		slot, ok := slots[e.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column #%d not available in this row", e.ID)
		}
		return func(row types.Row) (types.Value, error) { return row[slot], nil }, nil
	case *plan.Const:
		v := e.Val
		return func(types.Row) (types.Value, error) { return v, nil }, nil
	case *plan.Bin:
		return compileBin(e, slots)
	case *plan.Un:
		inner, err := Compile(e.E, slots)
		if err != nil {
			return nil, err
		}
		if e.Op == "NOT" {
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil || v.IsNull() {
					return types.NewNull(types.TBool), err
				}
				return types.NewBool(!v.Bool()), nil
			}, nil
		}
		return func(row types.Row) (types.Value, error) {
			v, err := inner(row)
			if err != nil || v.IsNull() {
				return types.NewNull(v.Typ), err
			}
			switch v.Typ {
			case types.TInt:
				return types.NewInt(-v.Int()), nil
			case types.TFloat:
				return types.NewFloat(-v.Float()), nil
			case types.TDecimal:
				return types.NewDecimal(v.Decimal().Neg()), nil
			}
			return types.Value{}, fmt.Errorf("exec: unary - on %s", v.Typ)
		}, nil
	case *plan.IsNullExpr:
		inner, err := Compile(e.E, slots)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(row types.Row) (types.Value, error) {
			v, err := inner(row)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(v.IsNull() != not), nil
		}, nil
	case *plan.InListExpr:
		inner, err := Compile(e.E, slots)
		if err != nil {
			return nil, err
		}
		var list []EvalFn
		for _, x := range e.List {
			fn, err := Compile(x, slots)
			if err != nil {
				return nil, err
			}
			list = append(list, fn)
		}
		not := e.Not
		return func(row types.Row) (types.Value, error) {
			v, err := inner(row)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() {
				return types.NewNull(types.TBool), nil
			}
			sawNull := false
			for _, fn := range list {
				x, err := fn(row)
				if err != nil {
					return types.Value{}, err
				}
				if x.IsNull() {
					sawNull = true
					continue
				}
				if types.Equal(v, x) {
					return types.NewBool(!not), nil
				}
			}
			if sawNull {
				return types.NewNull(types.TBool), nil
			}
			return types.NewBool(not), nil
		}, nil
	case *plan.Func:
		return compileFunc(e, slots)
	case *plan.Case:
		type arm struct{ cond, then EvalFn }
		var arms []arm
		for _, w := range e.Whens {
			c, err := Compile(w.Cond, slots)
			if err != nil {
				return nil, err
			}
			t, err := Compile(w.Then, slots)
			if err != nil {
				return nil, err
			}
			arms = append(arms, arm{c, t})
		}
		var elseFn EvalFn
		if e.Else != nil {
			var err error
			elseFn, err = Compile(e.Else, slots)
			if err != nil {
				return nil, err
			}
		}
		typ := e.Typ
		return func(row types.Row) (types.Value, error) {
			for _, a := range arms {
				c, err := a.cond(row)
				if err != nil {
					return types.Value{}, err
				}
				if !c.IsNull() && c.Bool() {
					return a.then(row)
				}
			}
			if elseFn != nil {
				return elseFn(row)
			}
			return types.NewNull(typ), nil
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T", e)
}

func compileBin(e *plan.Bin, slots map[types.ColumnID]int) (EvalFn, error) {
	l, err := Compile(e.L, slots)
	if err != nil {
		return nil, err
	}
	r, err := Compile(e.R, slots)
	if err != nil {
		return nil, err
	}
	op := e.Op
	switch op {
	case "AND":
		return func(row types.Row) (types.Value, error) {
			a, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if !a.IsNull() && !a.Bool() {
				return types.NewBool(false), nil
			}
			b, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if !b.IsNull() && !b.Bool() {
				return types.NewBool(false), nil
			}
			if a.IsNull() || b.IsNull() {
				return types.NewNull(types.TBool), nil
			}
			return types.NewBool(true), nil
		}, nil
	case "OR":
		return func(row types.Row) (types.Value, error) {
			a, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if !a.IsNull() && a.Bool() {
				return types.NewBool(true), nil
			}
			b, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if !b.IsNull() && b.Bool() {
				return types.NewBool(true), nil
			}
			if a.IsNull() || b.IsNull() {
				return types.NewNull(types.TBool), nil
			}
			return types.NewBool(false), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(row types.Row) (types.Value, error) {
			a, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			b, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if a.IsNull() || b.IsNull() {
				return types.NewNull(types.TBool), nil
			}
			c, err := types.Compare(a, b)
			if err != nil {
				return types.Value{}, err
			}
			var res bool
			switch op {
			case "=":
				res = c == 0
			case "<>":
				res = c != 0
			case "<":
				res = c < 0
			case "<=":
				res = c <= 0
			case ">":
				res = c > 0
			case ">=":
				res = c >= 0
			}
			return types.NewBool(res), nil
		}, nil
	case "||":
		return func(row types.Row) (types.Value, error) {
			a, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			b, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if a.IsNull() || b.IsNull() {
				return types.NewNull(types.TString), nil
			}
			return types.NewString(a.String() + b.String()), nil
		}, nil
	case "+", "-", "*", "/":
		resT := e.Typ
		return func(row types.Row) (types.Value, error) {
			a, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			b, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if a.IsNull() || b.IsNull() {
				return types.NewNull(resT), nil
			}
			return Arith(op, a, b)
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown operator %s", op)
}

// Arith performs SQL arithmetic on two non-NULL values with the same
// promotion rules the binder uses for typing.
func Arith(op string, a, b types.Value) (types.Value, error) {
	if a.Typ == types.TFloat || b.Typ == types.TFloat {
		x, y := a.Float(), b.Float()
		switch op {
		case "+":
			return types.NewFloat(x + y), nil
		case "-":
			return types.NewFloat(x - y), nil
		case "*":
			return types.NewFloat(x * y), nil
		case "/":
			if y == 0 {
				return types.Value{}, fmt.Errorf("exec: division by zero")
			}
			return types.NewFloat(x / y), nil
		}
	}
	if a.Typ == types.TDecimal || b.Typ == types.TDecimal {
		x, y := a.Decimal(), b.Decimal()
		switch op {
		case "+":
			return types.NewDecimal(x.Add(y)), nil
		case "-":
			return types.NewDecimal(x.Sub(y)), nil
		case "*":
			return types.NewDecimal(x.Mul(y)), nil
		case "/":
			scale := x.Scale
			if y.Scale > scale {
				scale = y.Scale
			}
			scale += 6
			if scale > decimal.MaxScale {
				scale = decimal.MaxScale
			}
			q, err := x.Div(y, scale)
			if err != nil {
				return types.Value{}, fmt.Errorf("exec: %v", err)
			}
			return types.NewDecimal(q), nil
		}
	}
	if a.Typ == types.TInt && b.Typ == types.TInt {
		x, y := a.Int(), b.Int()
		switch op {
		case "+":
			return types.NewInt(x + y), nil
		case "-":
			return types.NewInt(x - y), nil
		case "*":
			return types.NewInt(x * y), nil
		case "/":
			if y == 0 {
				return types.Value{}, fmt.Errorf("exec: division by zero")
			}
			return types.NewFloat(float64(x) / float64(y)), nil
		}
	}
	return types.Value{}, fmt.Errorf("exec: cannot apply %s to %s and %s", op, a.Typ, b.Typ)
}

func compileFunc(e *plan.Func, slots map[types.ColumnID]int) (EvalFn, error) {
	var args []EvalFn
	for _, a := range e.Args {
		fn, err := Compile(a, slots)
		if err != nil {
			return nil, err
		}
		args = append(args, fn)
	}
	evalArgs := func(row types.Row) ([]types.Value, error) {
		out := make([]types.Value, len(args))
		for i, fn := range args {
			v, err := fn(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	name := e.Name
	typ := e.Typ
	return func(row types.Row) (types.Value, error) {
		vs, err := evalArgs(row)
		if err != nil {
			return types.Value{}, err
		}
		return callScalar(name, typ, vs)
	}, nil
}

// callScalar executes a scalar function on evaluated arguments.
func callScalar(name string, typ types.Type, vs []types.Value) (types.Value, error) {
	switch name {
	case "ROUND":
		if vs[0].IsNull() {
			return types.NewNull(typ), nil
		}
		var s int64
		if len(vs) == 2 {
			if vs[1].IsNull() {
				return types.NewNull(typ), nil
			}
			s = vs[1].Int()
		}
		switch vs[0].Typ {
		case types.TDecimal:
			if s < 0 {
				s = 0
			}
			return types.NewDecimal(vs[0].Decimal().Round(int32(s))), nil
		case types.TFloat:
			p := math.Pow(10, float64(s))
			return types.NewFloat(math.Round(vs[0].Float()*p) / p), nil
		case types.TInt:
			return vs[0], nil
		}
		return types.Value{}, fmt.Errorf("exec: ROUND on %s", vs[0].Typ)
	case "ABS":
		if vs[0].IsNull() {
			return types.NewNull(typ), nil
		}
		switch vs[0].Typ {
		case types.TInt:
			x := vs[0].Int()
			if x < 0 {
				x = -x
			}
			return types.NewInt(x), nil
		case types.TFloat:
			return types.NewFloat(math.Abs(vs[0].Float())), nil
		case types.TDecimal:
			d := vs[0].Decimal()
			if d.Coef < 0 {
				d.Coef = -d.Coef
			}
			return types.NewDecimal(d), nil
		}
		return types.Value{}, fmt.Errorf("exec: ABS on %s", vs[0].Typ)
	case "FLOOR", "CEIL":
		if vs[0].IsNull() {
			return types.NewNull(types.TInt), nil
		}
		f := vs[0].Float()
		if name == "FLOOR" {
			return types.NewInt(int64(math.Floor(f))), nil
		}
		return types.NewInt(int64(math.Ceil(f))), nil
	case "COALESCE":
		for _, v := range vs {
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.NewNull(typ), nil
	case "IFNULL":
		if !vs[0].IsNull() {
			return vs[0], nil
		}
		return vs[1], nil
	case "NULLIF":
		if !vs[0].IsNull() && !vs[1].IsNull() && types.Equal(vs[0], vs[1]) {
			return types.NewNull(typ), nil
		}
		return vs[0], nil
	case "UPPER":
		if vs[0].IsNull() {
			return types.NewNull(types.TString), nil
		}
		return types.NewString(strings.ToUpper(vs[0].Str())), nil
	case "LOWER":
		if vs[0].IsNull() {
			return types.NewNull(types.TString), nil
		}
		return types.NewString(strings.ToLower(vs[0].Str())), nil
	case "LENGTH":
		if vs[0].IsNull() {
			return types.NewNull(types.TInt), nil
		}
		return types.NewInt(int64(len(vs[0].Str()))), nil
	case "SUBSTR":
		if vs[0].IsNull() || vs[1].IsNull() {
			return types.NewNull(types.TString), nil
		}
		s := vs[0].Str()
		start := int(vs[1].Int()) - 1 // SQL SUBSTR is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(vs) == 3 {
			if vs[2].IsNull() {
				return types.NewNull(types.TString), nil
			}
			end = start + int(vs[2].Int())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return types.NewString(s[start:end]), nil
	case "CONCAT":
		var b strings.Builder
		for _, v := range vs {
			if v.IsNull() {
				return types.NewNull(types.TString), nil
			}
			b.WriteString(v.String())
		}
		return types.NewString(b.String()), nil
	case "MOD":
		if vs[0].IsNull() || vs[1].IsNull() {
			return types.NewNull(types.TInt), nil
		}
		if vs[1].Int() == 0 {
			return types.Value{}, fmt.Errorf("exec: MOD by zero")
		}
		return types.NewInt(vs[0].Int() % vs[1].Int()), nil
	case "TO_DECIMAL":
		if vs[0].IsNull() {
			return types.NewNull(types.TDecimal), nil
		}
		var scale int32 = 2
		if len(vs) == 2 && !vs[1].IsNull() {
			scale = int32(vs[1].Int())
		}
		switch vs[0].Typ {
		case types.TDecimal:
			return types.NewDecimal(vs[0].Decimal().Rescale(scale)), nil
		case types.TInt:
			return types.NewDecimal(decimal.FromInt(vs[0].Int()).Rescale(scale)), nil
		case types.TFloat:
			d, err := decimal.Parse(fmt.Sprintf("%.*f", scale, vs[0].Float()))
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDecimal(d), nil
		}
		return types.Value{}, fmt.Errorf("exec: TO_DECIMAL on %s", vs[0].Typ)
	}
	return types.Value{}, fmt.Errorf("exec: unknown function %s", name)
}
