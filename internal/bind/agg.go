package bind

import (
	"fmt"
	"strings"

	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// aggBinder carries the state of binding one aggregate SELECT block.
type aggBinder struct {
	b         *Binder
	sc        *scope
	groupKeys map[string]types.ColumnID // ExprKey of group expr -> group col
	aggKeys   map[string]types.ColumnID // canonical agg key -> agg col
	aggs      []plan.AggCol
	apl       bool // inside ALLOW_PRECISION_LOSS
}

// bindAggregate builds Project(Filter?(GroupBy(preProject?(input)))) for
// an aggregate SELECT.
func (b *Binder) bindAggregate(sel *sql.Select, items []boundItem, input plan.Node, sc *scope) (plan.Node, []types.ColumnID, []string, error) {
	ab := &aggBinder{
		b:         b,
		sc:        sc,
		groupKeys: make(map[string]types.ColumnID),
		aggKeys:   make(map[string]types.ColumnID),
	}

	// Bind the grouping expressions. Non-column group expressions are
	// computed in a projection below the GroupBy.
	var groupExprs []plan.Expr
	needProject := false
	for _, ge := range sel.GroupBy {
		gexpr, err := b.expandMacros(ge, sc)
		if err != nil {
			return nil, nil, nil, err
		}
		be, err := b.bindExpr(gexpr, sc, false)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, ok := be.(*plan.ColRef); !ok {
			needProject = true
		}
		groupExprs = append(groupExprs, be)
	}
	remap := make(map[types.ColumnID]types.ColumnID)
	var computedIDs []types.ColumnID // parallel to groupExprs; -1 sentinel unused
	if needProject {
		// Pass-through all input columns under fresh IDs (each column is
		// defined by exactly one node) plus the computed group columns.
		var cols []plan.ProjCol
		for _, id := range input.Columns() {
			fresh := b.ctx.NewColumn(b.ctx.Name(id), b.ctx.Type(id))
			cols = append(cols, plan.ProjCol{ID: fresh, Expr: &plan.ColRef{ID: id, Typ: b.ctx.Type(id)}})
			remap[id] = fresh
		}
		for _, be := range groupExprs {
			if _, ok := be.(*plan.ColRef); ok {
				computedIDs = append(computedIDs, -1)
				continue
			}
			id := b.ctx.NewColumn("__group", be.Type())
			cols = append(cols, plan.ProjCol{ID: id, Expr: be})
			computedIDs = append(computedIDs, id)
		}
		input = &plan.Project{Input: input, Cols: cols}
		// The scope now refers to stale IDs; remap it so aggregate
		// arguments and item expressions bind to the projected columns.
		for i := range sc.cols {
			if to, ok := remap[sc.cols[i].id]; ok {
				sc.cols[i].id = to
			}
		}
	}
	var groupCols []types.ColumnID
	for i, be := range groupExprs {
		// Keys are computed over post-projection IDs so that item
		// expressions (bound against the remapped scope) match.
		keyExpr := plan.RemapColumns(be, remap)
		key := plan.ExprKey(keyExpr)
		if _, dup := ab.groupKeys[key]; dup {
			continue
		}
		var id types.ColumnID
		if cr, ok := keyExpr.(*plan.ColRef); ok {
			id = cr.ID
		} else {
			id = computedIDs[i]
		}
		groupCols = append(groupCols, id)
		ab.groupKeys[key] = id
	}

	// Transform the select items (and HAVING), extracting aggregates.
	var outExprs []plan.Expr
	for _, it := range items {
		if it.pre != nil {
			// Star-expanded column: must be a grouping column.
			keyExpr := plan.RemapColumns(it.pre, remap)
			if id, ok := ab.groupKeys[plan.ExprKey(keyExpr)]; ok {
				outExprs = append(outExprs, &plan.ColRef{ID: id, Typ: b.ctx.Type(id)})
				continue
			}
			return nil, nil, nil, fmt.Errorf("bind: column %s must appear in GROUP BY or inside an aggregate", it.name)
		}
		e, err := ab.transform(it.expr)
		if err != nil {
			return nil, nil, nil, err
		}
		outExprs = append(outExprs, e)
	}
	var havingExpr plan.Expr
	if sel.Having != nil {
		h, err := b.expandMacros(sel.Having, sc)
		if err != nil {
			return nil, nil, nil, err
		}
		havingExpr, err = ab.transform(h)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	var node plan.Node = &plan.GroupBy{Input: input, GroupCols: groupCols, Aggs: ab.aggs}
	if havingExpr != nil {
		node = &plan.Filter{Input: node, Cond: havingExpr}
	}
	var projCols []plan.ProjCol
	var outIDs []types.ColumnID
	var outNames []string
	for i, e := range outExprs {
		id := b.ctx.NewColumn(items[i].name, e.Type())
		projCols = append(projCols, plan.ProjCol{ID: id, Expr: e})
		outIDs = append(outIDs, id)
		outNames = append(outNames, items[i].name)
	}
	return &plan.Project{Input: node, Cols: projCols}, outIDs, outNames, nil
}

// transform rewrites a select-item expression into a plan expression
// over the GroupBy output: aggregate calls become references to
// aggregate columns, grouping expressions become references to group
// columns, and anything else must be built from those (or constants).
func (ab *aggBinder) transform(e sql.Expr) (plan.Expr, error) {
	switch e := e.(type) {
	case *sql.AllowPrecisionLoss:
		saved := ab.apl
		ab.apl = true
		out, err := ab.transform(e.E)
		ab.apl = saved
		return out, err
	case *sql.FuncCall:
		if sql.AggFuncs[e.Name] {
			return ab.bindAggCall(e)
		}
	}
	// A complete match against a grouping expression?
	if !exprHasAggregate(e) {
		if be, err := ab.b.bindExpr(e, ab.sc, false); err == nil {
			key := plan.ExprKey(be)
			if id, ok := ab.groupKeys[key]; ok {
				return &plan.ColRef{ID: id, Typ: ab.b.ctx.Type(id)}, nil
			}
			if plan.ColsUsed(be).Empty() {
				return be, nil
			}
		}
	}
	// Otherwise decompose structurally.
	switch e := e.(type) {
	case *sql.ColRef:
		return nil, fmt.Errorf("bind: column %s must appear in GROUP BY or inside an aggregate", e.String())
	case *sql.Lit:
		return &plan.Const{Val: e.Val, Slot: e.Slot}, nil
	case *sql.BinOp:
		l, err := ab.transform(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ab.transform(e.R)
		if err != nil {
			return nil, err
		}
		return binExpr(e.Op, l, r)
	case *sql.UnOp:
		x, err := ab.transform(e.E)
		if err != nil {
			return nil, err
		}
		if e.Op == "NOT" {
			return &plan.Un{Op: "NOT", E: x, Typ: types.TBool}, nil
		}
		return &plan.Un{Op: "-", E: x, Typ: x.Type()}, nil
	case *sql.IsNull:
		x, err := ab.transform(e.E)
		if err != nil {
			return nil, err
		}
		return &plan.IsNullExpr{E: x, Not: e.Not}, nil
	case *sql.InList:
		x, err := ab.transform(e.E)
		if err != nil {
			return nil, err
		}
		out := &plan.InListExpr{E: x, Not: e.Not}
		for _, v := range e.List {
			vv, err := ab.transform(v)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, vv)
		}
		return out, nil
	case *sql.Between:
		x, err := ab.transform(e.E)
		if err != nil {
			return nil, err
		}
		lo, err := ab.transform(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := ab.transform(e.Hi)
		if err != nil {
			return nil, err
		}
		ge := &plan.Bin{Op: ">=", L: x, R: lo, Typ: types.TBool}
		le := &plan.Bin{Op: "<=", L: x, R: hi, Typ: types.TBool}
		return &plan.Bin{Op: "AND", L: ge, R: le, Typ: types.TBool}, nil
	case *sql.FuncCall:
		var args []plan.Expr
		for _, a := range e.Args {
			x, err := ab.transform(a)
			if err != nil {
				return nil, err
			}
			args = append(args, x)
		}
		name := strings.ToUpper(e.Name)
		rule, ok := scalarFuncs[name]
		if !ok {
			return nil, fmt.Errorf("bind: unknown function %s", e.Name)
		}
		return newFunc(name, rule, args)
	case *sql.CaseExpr:
		out := &plan.Case{}
		for _, w := range e.Whens {
			c, err := ab.transform(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := ab.transform(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, plan.CaseArm{Cond: c, Then: t})
		}
		if e.Else != nil {
			el, err := ab.transform(e.Else)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		if err := typeCase(out); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("bind: cannot use %T here", e)
}

// aggResultType computes the output type of an aggregate.
func aggResultType(op plan.AggOp, arg types.Type) types.Type {
	switch op {
	case plan.AggCount:
		return types.TInt
	case plan.AggSum:
		return arg
	case plan.AggMin, plan.AggMax:
		return arg
	case plan.AggAvg:
		if arg == types.TDecimal {
			return types.TDecimal
		}
		return types.TFloat
	}
	return arg
}

func (ab *aggBinder) bindAggCall(e *sql.FuncCall) (plan.Expr, error) {
	var op plan.AggOp
	switch e.Name {
	case "SUM":
		op = plan.AggSum
	case "COUNT":
		op = plan.AggCount
	case "MIN":
		op = plan.AggMin
	case "MAX":
		op = plan.AggMax
	case "AVG":
		op = plan.AggAvg
	default:
		return nil, fmt.Errorf("bind: unknown aggregate %s", e.Name)
	}
	var arg plan.Expr
	if e.Star {
		if op != plan.AggCount {
			return nil, fmt.Errorf("bind: %s(*) is not valid", e.Name)
		}
	} else {
		if len(e.Args) != 1 {
			return nil, fmt.Errorf("bind: %s takes exactly one argument", e.Name)
		}
		if exprHasAggregate(e.Args[0]) {
			return nil, fmt.Errorf("bind: nested aggregates are not allowed")
		}
		var err error
		arg, err = ab.b.bindExpr(e.Args[0], ab.sc, false)
		if err != nil {
			return nil, err
		}
		if op == plan.AggSum || op == plan.AggAvg {
			if !types.Numeric(arg.Type()) && arg.Type() != types.TNull {
				return nil, fmt.Errorf("bind: %s requires a numeric argument", e.Name)
			}
		}
	}
	key := fmt.Sprintf("%s|%v|%v|%v|%s", op, e.Star, e.Distinct, ab.apl, plan.ExprKey(arg))
	if id, ok := ab.aggKeys[key]; ok {
		return &plan.ColRef{ID: id, Typ: ab.b.ctx.Type(id)}, nil
	}
	var argT types.Type
	if arg != nil {
		argT = arg.Type()
	}
	rt := aggResultType(op, argT)
	id := ab.b.ctx.NewColumn(strings.ToLower(e.Name), rt)
	ab.aggKeys[key] = id
	ab.aggs = append(ab.aggs, plan.AggCol{
		ID:                 id,
		Op:                 op,
		Arg:                arg,
		Star:               e.Star,
		Distinct:           e.Distinct,
		AllowPrecisionLoss: ab.apl,
	})
	return &plan.ColRef{ID: id, Typ: rt}, nil
}
