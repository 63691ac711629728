package core

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// rewriteAggregates applies the §7.1 family of rewrites:
//
//   - ALLOW_PRECISION_LOSS: SUM(ROUND(x·c, s)) → ROUND(SUM(x)·c, s),
//     interchanging decimal rounding and addition;
//   - eager aggregation: pushing a GroupBy below an augmentation join
//     when the grouping columns and (decomposed) aggregate inputs come
//     from the anchor, so aggregation shrinks the data before the join.
func (o *Optimizer) rewriteAggregates(n plan.Node) plan.Node {
	defer o.settle(n, o.rewrites)
	for i, c := range n.Inputs() {
		n.SetInput(i, o.rewriteAggregates(c))
	}
	gb, ok := n.(*plan.GroupBy)
	if !ok {
		return n
	}
	if o.caps.Has(CapEagerAgg) {
		if out := o.eagerAggregate(gb); out != nil {
			return out
		}
	}
	if o.caps.Has(CapPrecisionLoss) {
		if out := o.aplRewrite(gb); out != nil {
			return out
		}
	}
	return n
}

// splitProduct flattens a multiplication tree into factors.
func splitProduct(e plan.Expr) []plan.Expr {
	if b, ok := e.(*plan.Bin); ok && b.Op == "*" {
		return append(splitProduct(b.L), splitProduct(b.R)...)
	}
	return []plan.Expr{e}
}

// product rebuilds a factor list (nil for the empty product).
func product(factors []plan.Expr) plan.Expr {
	var out plan.Expr
	for _, f := range factors {
		if out == nil {
			out = f
		} else {
			t, err := numericProductType(out.Type(), f.Type())
			if err != nil {
				t = out.Type()
			}
			out = &plan.Bin{Op: "*", L: out, R: f, Typ: t}
		}
	}
	return out
}

func numericProductType(l, r types.Type) (types.Type, error) {
	switch {
	case l == types.TFloat || r == types.TFloat:
		return types.TFloat, nil
	case l == types.TDecimal || r == types.TDecimal:
		return types.TDecimal, nil
	}
	return types.TInt, nil
}

// roundPattern matches ROUND(inner [, scale-const]) and returns the
// inner expression and the scale argument.
func roundPattern(e plan.Expr) (inner plan.Expr, scaleArg plan.Expr, ok bool) {
	f, isF := e.(*plan.Func)
	if !isF || f.Name != "ROUND" || len(f.Args) == 0 {
		return nil, nil, false
	}
	inner = f.Args[0]
	if len(f.Args) == 2 {
		if _, isConst := f.Args[1].(*plan.Const); !isConst {
			return nil, nil, false
		}
		scaleArg = f.Args[1]
	}
	return inner, scaleArg, true
}

// aplRewrite rewrites ALLOW_PRECISION_LOSS sums of rounded linear
// expressions: SUM(ROUND(x·c, s)) becomes ROUND(SUM(x)·c, s), where c is
// a constant product. Returns a Project over the modified GroupBy, or
// nil when nothing matched.
func (o *Optimizer) aplRewrite(gb *plan.GroupBy) plan.Node {
	matched := false
	outer := map[types.ColumnID]plan.Expr{}
	for i := range gb.Aggs {
		a := &gb.Aggs[i]
		if !a.AllowPrecisionLoss || a.Op != plan.AggSum || a.Distinct || a.Arg == nil {
			continue
		}
		inner, scaleArg, ok := roundPattern(a.Arg)
		if !ok {
			continue
		}
		var constFactors, varFactors []plan.Expr
		for _, f := range splitProduct(inner) {
			if plan.ColsUsed(f).Empty() {
				constFactors = append(constFactors, f)
			} else {
				varFactors = append(varFactors, f)
			}
		}
		if len(varFactors) == 0 {
			continue
		}
		x := product(varFactors)
		newID := o.ctx.NewColumn("__apl_sum", x.Type())
		origID := a.ID
		a.ID = newID
		a.Arg = x
		a.AllowPrecisionLoss = false
		sumRef := plan.Expr(&plan.ColRef{ID: newID, Typ: x.Type()})
		if len(constFactors) > 0 {
			sumRef = product(append([]plan.Expr{sumRef}, constFactors...))
		}
		args := []plan.Expr{sumRef}
		if scaleArg != nil {
			args = append(args, scaleArg)
		}
		outer[origID] = &plan.Func{Name: "ROUND", Args: args, Typ: o.ctx.Type(origID)}
		matched = true
	}
	if !matched {
		return nil
	}
	o.rewrote(gb)
	o.log("apl-round-interchange")
	var cols []plan.ProjCol
	for _, g := range gb.GroupCols {
		cols = append(cols, plan.ProjCol{ID: g, Expr: &plan.ColRef{ID: g, Typ: o.ctx.Type(g)}})
	}
	for _, a := range gb.Aggs {
		id := a.ID
		cols = append(cols, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}})
	}
	// Re-expose the original aggregate IDs through the outer expressions.
	for origID, e := range outer {
		for i := range cols {
			if cols[i].ID == origID {
				cols[i].Expr = e
			}
		}
		found := false
		for i := range cols {
			if cols[i].ID == origID {
				found = true
			}
		}
		if !found {
			cols = append(cols, plan.ProjCol{ID: origID, Expr: e})
		}
	}
	return &plan.Project{Input: gb, Cols: cols}
}

// eagerAggregate pushes a GroupBy below a row-preserving augmentation
// join. Grouping columns must come from the anchor and include every
// anchor column the join condition uses, so each group joins uniformly.
// Aggregate arguments either come purely from the anchor or — under
// ALLOW_PRECISION_LOSS — are rounded products with augmenter-side
// factors that are constant within each group (the §7.1 currency
// conversion scenario).
func (o *Optimizer) eagerAggregate(gb *plan.GroupBy) plan.Node {
	j, ok := gb.Input.(*plan.Join)
	if !ok || (j.Kind != plan.InnerJoin && j.Kind != plan.LeftOuterJoin) {
		return nil
	}
	if !o.isRowPreservingAJ(j) {
		return nil
	}
	leftCols, rightCols := o.cols(j.Left), o.cols(j.Right)
	groupSet := types.MakeColSet(gb.GroupCols...)
	if !groupSet.SubsetOf(leftCols) {
		return nil
	}
	condCols := plan.ColsUsed(j.Cond)
	if !condCols.Intersect(leftCols).SubsetOf(groupSet) {
		return nil
	}

	anyRight := false
	type rewrittenAgg struct {
		newAgg plan.AggCol
		outer  plan.Expr // nil means plain column reference
	}
	var rewritten []rewrittenAgg
	for _, a := range gb.Aggs {
		argCols := types.ColSet{}
		if a.Arg != nil {
			argCols = plan.ColsUsed(a.Arg)
		}
		switch {
		case a.Star || argCols.SubsetOf(leftCols):
			rewritten = append(rewritten, rewrittenAgg{newAgg: a})
		case a.Op == plan.AggSum && !a.Distinct && a.AllowPrecisionLoss && o.caps.Has(CapPrecisionLoss):
			arg := a.Arg
			var scaleArg plan.Expr
			if inner, s, ok := roundPattern(arg); ok {
				arg, scaleArg = inner, s
			}
			var leftFactors, rightFactors []plan.Expr
			bad := false
			for _, f := range splitProduct(arg) {
				used := plan.ColsUsed(f)
				switch {
				case used.SubsetOf(leftCols) || used.Empty():
					leftFactors = append(leftFactors, f)
				case used.SubsetOf(rightCols):
					rightFactors = append(rightFactors, f)
				default:
					bad = true
				}
			}
			if bad || len(leftFactors) == 0 {
				return nil
			}
			x := product(leftFactors)
			newID := o.ctx.NewColumn("__eager_sum", x.Type())
			newAgg := plan.AggCol{ID: newID, Op: plan.AggSum, Arg: x}
			outer := plan.Expr(&plan.ColRef{ID: newID, Typ: x.Type()})
			if len(rightFactors) > 0 {
				outer = product(append([]plan.Expr{outer}, rightFactors...))
				anyRight = true
			}
			if scaleArg != nil {
				outer = &plan.Func{Name: "ROUND", Args: []plan.Expr{outer, scaleArg}, Typ: o.ctx.Type(a.ID)}
			}
			rewritten = append(rewritten, rewrittenAgg{newAgg: newAgg, outer: outer})
		default:
			return nil
		}
	}
	_ = anyRight

	// Avoid re-applying forever: only rewrite when the left side is not
	// already a grouped input (the pass naturally terminates as the
	// GroupBy descends past each augmentation join).
	if _, already := j.Left.(*plan.GroupBy); already {
		return nil
	}

	var newAggs []plan.AggCol
	for _, r := range rewritten {
		newAggs = append(newAggs, r.newAgg)
	}
	newGB := &plan.GroupBy{Input: j.Left, GroupCols: gb.GroupCols, Aggs: newAggs}
	j.Left = newGB
	var cols []plan.ProjCol
	for _, g := range gb.GroupCols {
		cols = append(cols, plan.ProjCol{ID: g, Expr: &plan.ColRef{ID: g, Typ: o.ctx.Type(g)}})
	}
	for i, a := range gb.Aggs {
		e := rewritten[i].outer
		if e == nil {
			e = &plan.ColRef{ID: rewritten[i].newAgg.ID, Typ: o.ctx.Type(rewritten[i].newAgg.ID)}
		}
		cols = append(cols, plan.ProjCol{ID: a.ID, Expr: e})
	}
	o.rewrote(j)
	o.log("eager-agg-across-aj")
	return &plan.Project{Input: j, Cols: cols}
}
