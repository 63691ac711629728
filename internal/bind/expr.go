package bind

import (
	"fmt"
	"strings"

	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// exprHasAggregate reports whether the SQL expression contains an
// aggregate function call.
func exprHasAggregate(e sql.Expr) bool {
	switch e := e.(type) {
	case *sql.FuncCall:
		if sql.AggFuncs[e.Name] {
			return true
		}
		for _, a := range e.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *sql.BinOp:
		return exprHasAggregate(e.L) || exprHasAggregate(e.R)
	case *sql.UnOp:
		return exprHasAggregate(e.E)
	case *sql.IsNull:
		return exprHasAggregate(e.E)
	case *sql.InList:
		if exprHasAggregate(e.E) {
			return true
		}
		for _, x := range e.List {
			if exprHasAggregate(x) {
				return true
			}
		}
	case *sql.Between:
		return exprHasAggregate(e.E) || exprHasAggregate(e.Lo) || exprHasAggregate(e.Hi)
	case *sql.CaseExpr:
		for _, w := range e.Whens {
			if exprHasAggregate(w.Cond) || exprHasAggregate(w.Then) {
				return true
			}
		}
		return e.Else != nil && exprHasAggregate(e.Else)
	case *sql.AllowPrecisionLoss:
		return exprHasAggregate(e.E)
	}
	return false
}

// numericResult computes the promoted type of an arithmetic operation.
func numericResult(op string, l, r types.Type) (types.Type, error) {
	if l == types.TNull {
		l = r
	}
	if r == types.TNull {
		r = l
	}
	if !types.Numeric(l) || !types.Numeric(r) {
		return 0, fmt.Errorf("bind: operator %s requires numeric operands, got %s and %s", op, l, r)
	}
	if op == "/" {
		if l == types.TDecimal || r == types.TDecimal {
			return types.TDecimal, nil
		}
		return types.TFloat, nil
	}
	switch {
	case l == types.TFloat || r == types.TFloat:
		return types.TFloat, nil
	case l == types.TDecimal || r == types.TDecimal:
		return types.TDecimal, nil
	default:
		return types.TInt, nil
	}
}

// binExpr builds a typed binary plan expression.
func binExpr(op string, l, r plan.Expr) (plan.Expr, error) {
	switch op {
	case "AND", "OR":
		return &plan.Bin{Op: op, L: l, R: r, Typ: types.TBool}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return &plan.Bin{Op: op, L: l, R: r, Typ: types.TBool}, nil
	case "||":
		return &plan.Bin{Op: op, L: l, R: r, Typ: types.TString}, nil
	case "+", "-", "*", "/":
		t, err := numericResult(op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &plan.Bin{Op: op, L: l, R: r, Typ: t}, nil
	}
	return nil, fmt.Errorf("bind: unknown operator %s", op)
}

// bindExpr binds a scalar SQL expression against the scope. Aggregate
// function calls are rejected (they are handled by the aggregate binding
// path).
func (b *Binder) bindExpr(e sql.Expr, sc *scope, allowAgg bool) (plan.Expr, error) {
	switch e := e.(type) {
	case *sql.ColRef:
		c, err := sc.resolve(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		return &plan.ColRef{ID: c.id, Typ: c.typ}, nil
	case *sql.Lit:
		return &plan.Const{Val: e.Val, Slot: e.Slot}, nil
	case *sql.BinOp:
		l, err := b.bindExpr(e.L, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(e.R, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return binExpr(e.Op, l, r)
	case *sql.UnOp:
		x, err := b.bindExpr(e.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		if e.Op == "NOT" {
			return &plan.Un{Op: "NOT", E: x, Typ: types.TBool}, nil
		}
		return &plan.Un{Op: "-", E: x, Typ: x.Type()}, nil
	case *sql.IsNull:
		x, err := b.bindExpr(e.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return &plan.IsNullExpr{E: x, Not: e.Not}, nil
	case *sql.InList:
		x, err := b.bindExpr(e.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		out := &plan.InListExpr{E: x, Not: e.Not}
		for _, v := range e.List {
			vv, err := b.bindExpr(v, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, vv)
		}
		return out, nil
	case *sql.Between:
		x, err := b.bindExpr(e.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(e.Lo, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(e.Hi, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		ge := &plan.Bin{Op: ">=", L: x, R: lo, Typ: types.TBool}
		le := &plan.Bin{Op: "<=", L: x, R: hi, Typ: types.TBool}
		return &plan.Bin{Op: "AND", L: ge, R: le, Typ: types.TBool}, nil
	case *sql.FuncCall:
		if sql.AggFuncs[e.Name] {
			return nil, fmt.Errorf("bind: aggregate %s is not allowed here", e.Name)
		}
		return b.bindFunc(e, sc, allowAgg)
	case *sql.CaseExpr:
		out := &plan.Case{}
		for _, w := range e.Whens {
			c, err := b.bindExpr(w.Cond, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			t, err := b.bindExpr(w.Then, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, plan.CaseArm{Cond: c, Then: t})
			if out.Typ == types.TNull || out.Typ == 0 {
				out.Typ = t.Type()
			}
		}
		if e.Else != nil {
			el, err := b.bindExpr(e.Else, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			out.Else = el
			if out.Typ == types.TNull || out.Typ == 0 {
				out.Typ = el.Type()
			}
		}
		return out, nil
	case *sql.AllowPrecisionLoss:
		return nil, fmt.Errorf("bind: ALLOW_PRECISION_LOSS must wrap an aggregate expression")
	case *sql.MacroRef:
		return nil, fmt.Errorf("bind: expression macro %s outside a query over its view", e.Name)
	case *sql.Exists:
		return nil, fmt.Errorf("bind: EXISTS is only supported as a top-level WHERE conjunct")
	case *sql.InSubquery:
		return nil, fmt.Errorf("bind: IN (subquery) is only supported as a top-level WHERE conjunct")
	}
	return nil, fmt.Errorf("bind: unknown expression %T", e)
}

// scalarFuncs maps a function name to its result-type rule.
var scalarFuncs = map[string]func(args []plan.Expr) (types.Type, error){
	"ROUND": func(args []plan.Expr) (types.Type, error) {
		if len(args) < 1 || len(args) > 2 {
			return 0, fmt.Errorf("ROUND takes 1 or 2 arguments")
		}
		t := args[0].Type()
		if t == types.TInt {
			return types.TInt, nil
		}
		if t != types.TDecimal && t != types.TFloat && t != types.TNull {
			return 0, fmt.Errorf("ROUND requires a numeric argument")
		}
		return t, nil
	},
	"ABS": func(args []plan.Expr) (types.Type, error) {
		if len(args) != 1 {
			return 0, fmt.Errorf("ABS takes 1 argument")
		}
		if !numericOrNull(args[0].Type()) {
			return 0, fmt.Errorf("ABS requires a numeric argument")
		}
		return args[0].Type(), nil
	},
	"FLOOR": numArg1Int, "CEIL": numArg1Int,
	"COALESCE": func(args []plan.Expr) (types.Type, error) {
		if len(args) == 0 {
			return 0, fmt.Errorf("COALESCE needs arguments")
		}
		for _, a := range args {
			if a.Type() != types.TNull {
				return a.Type(), nil
			}
		}
		return types.TNull, nil
	},
	"IFNULL": func(args []plan.Expr) (types.Type, error) {
		if len(args) != 2 {
			return 0, fmt.Errorf("IFNULL takes 2 arguments")
		}
		if args[0].Type() != types.TNull {
			return args[0].Type(), nil
		}
		return args[1].Type(), nil
	},
	"NULLIF": func(args []plan.Expr) (types.Type, error) {
		if len(args) != 2 {
			return 0, fmt.Errorf("NULLIF takes 2 arguments")
		}
		return args[0].Type(), nil
	},
	"UPPER": strArg1, "LOWER": strArg1,
	"LENGTH": func(args []plan.Expr) (types.Type, error) {
		if len(args) != 1 {
			return 0, fmt.Errorf("LENGTH takes 1 argument")
		}
		if t := args[0].Type(); t != types.TString && t != types.TNull {
			return 0, fmt.Errorf("LENGTH requires a string argument")
		}
		return types.TInt, nil
	},
	"SUBSTR": func(args []plan.Expr) (types.Type, error) {
		if len(args) < 2 || len(args) > 3 {
			return 0, fmt.Errorf("SUBSTR takes 2 or 3 arguments")
		}
		if t := args[0].Type(); t != types.TString && t != types.TNull {
			return 0, fmt.Errorf("SUBSTR requires a string first argument")
		}
		for _, a := range args[1:] {
			if !intOrNull(a.Type()) {
				return 0, fmt.Errorf("SUBSTR positions must be integers")
			}
		}
		return types.TString, nil
	},
	"CONCAT": func(args []plan.Expr) (types.Type, error) {
		if len(args) < 2 {
			return 0, fmt.Errorf("CONCAT takes at least 2 arguments")
		}
		return types.TString, nil
	},
	"MOD": func(args []plan.Expr) (types.Type, error) {
		if len(args) != 2 {
			return 0, fmt.Errorf("MOD takes 2 arguments")
		}
		if !intOrNull(args[0].Type()) || !intOrNull(args[1].Type()) {
			return 0, fmt.Errorf("MOD requires integer arguments")
		}
		return types.TInt, nil
	},
	"CURRENT_USER": func(args []plan.Expr) (types.Type, error) {
		if len(args) != 0 {
			return 0, fmt.Errorf("CURRENT_USER takes no arguments")
		}
		return types.TString, nil
	},
	"TO_DECIMAL": func(args []plan.Expr) (types.Type, error) {
		if len(args) < 1 || len(args) > 2 {
			return 0, fmt.Errorf("TO_DECIMAL takes 1 or 2 arguments")
		}
		if !numericOrNull(args[0].Type()) {
			return 0, fmt.Errorf("TO_DECIMAL requires a numeric argument")
		}
		return types.TDecimal, nil
	},
}

func numArg1Int(args []plan.Expr) (types.Type, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("function takes 1 argument")
	}
	if !numericOrNull(args[0].Type()) {
		return 0, fmt.Errorf("function requires a numeric argument")
	}
	return types.TInt, nil
}

func strArg1(args []plan.Expr) (types.Type, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("function takes 1 argument")
	}
	if t := args[0].Type(); t != types.TString && t != types.TNull {
		return 0, fmt.Errorf("function requires a string argument")
	}
	return types.TString, nil
}

func numericOrNull(t types.Type) bool {
	return types.Numeric(t) || t == types.TNull
}

func intOrNull(t types.Type) bool {
	return t == types.TInt || t == types.TNull
}

func (b *Binder) bindFunc(e *sql.FuncCall, sc *scope, allowAgg bool) (plan.Expr, error) {
	name := strings.ToUpper(e.Name)
	rule, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("bind: unknown function %s", e.Name)
	}
	// CURRENT_USER() resolves at bind time (DAC injection, §3).
	if name == "CURRENT_USER" {
		return &plan.Const{Val: types.NewString(b.user)}, nil
	}
	var args []plan.Expr
	for _, a := range e.Args {
		x, err := b.bindExpr(a, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		args = append(args, x)
	}
	t, err := rule(args)
	if err != nil {
		return nil, fmt.Errorf("bind: %s: %v", name, err)
	}
	return &plan.Func{Name: name, Args: args, Typ: t}, nil
}
