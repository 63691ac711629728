package bind

import (
	"fmt"

	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// bindWhere processes a WHERE clause: EXISTS and IN-subquery predicates
// appearing as top-level conjuncts are unnested into semi/anti joins
// (the "unnesting nested queries" rewrite the paper attributes to the
// target system's heuristic phase, §2.2); remaining conjuncts form a
// filter.
func (b *Binder) bindWhere(where sql.Expr, node plan.Node, sc *scope, depth int) (plan.Node, error) {
	var plain []plan.Expr
	for _, conj := range sqlConjuncts(where) {
		sub, not := stripNot(conj)
		switch e := sub.(type) {
		case *sql.Exists:
			joined, err := b.bindSubqueryJoin(node, sc, depth, e.Query, nil, e.Not != not, false)
			if err != nil {
				return nil, err
			}
			node = joined
			continue
		case *sql.InSubquery:
			joined, err := b.bindSubqueryJoin(node, sc, depth, e.Query, e.E, e.Not != not, true)
			if err != nil {
				return nil, err
			}
			node = joined
			continue
		}
		cond, err := b.bindExpr(conj, sc, false)
		if err != nil {
			return nil, err
		}
		if cond.Type() != types.TBool && cond.Type() != types.TNull {
			return nil, fmt.Errorf("bind: WHERE must be boolean, got %s", cond.Type())
		}
		plain = append(plain, cond)
	}
	if len(plain) > 0 {
		node = &plan.Filter{Input: node, Cond: plan.AndAll(plain)}
	}
	return node, nil
}

// sqlConjuncts splits an AND tree at the SQL level.
func sqlConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinOp); ok && b.Op == "AND" {
		return append(sqlConjuncts(b.L), sqlConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// stripNot unwraps stacked NOT operators.
func stripNot(e sql.Expr) (sql.Expr, bool) {
	not := false
	for {
		u, ok := e.(*sql.UnOp)
		if !ok || u.Op != "NOT" {
			return e, not
		}
		not = !not
		e = u.E
	}
}

// bindSubqueryJoin binds the subquery with the outer scope visible
// (correlation), lifts correlated filter conjuncts into the join
// condition, and attaches a semi or anti join to node. inExpr is the
// left-hand expression for IN subqueries (nil for EXISTS); a NOT IN
// join names its compared column in Join.NotIn.
func (b *Binder) bindSubqueryJoin(node plan.Node, sc *scope, depth int, q sql.QueryExpr, inExpr sql.Expr, anti, isIn bool) (plan.Node, error) {
	outerCols := plan.ColumnsOf(node)
	sub, names, err := b.bindQueryExpr(q, depth+1, sc)
	if err != nil {
		return nil, fmt.Errorf("bind: in subquery: %v", err)
	}
	sub, lifted, err := b.liftCorrelated(sub, outerCols)
	if err != nil {
		return nil, err
	}
	// Any remaining outer reference is in an unsupported position.
	if leak := subtreeOuterRefs(sub, outerCols); !leak.Empty() {
		return nil, fmt.Errorf("bind: correlated subquery reference is only supported in top-level WHERE conjuncts of the subquery")
	}
	// Lifted conjuncts may reference subquery columns its projection
	// dropped (e.g. `select 1 from o where o.cid = c.id`): widen the
	// subquery's projections to expose them for the join condition.
	var needed types.ColSet
	for _, conj := range lifted {
		needed = needed.Union(plan.ColsUsed(conj))
	}
	needed = needed.Difference(outerCols).Difference(plan.ColumnsOf(sub))
	if !needed.Empty() {
		if !b.exposeColumns(sub, needed) {
			return nil, fmt.Errorf("bind: correlated subquery column is not reachable through the subquery's projections")
		}
	}
	conds := lifted
	var inCol *plan.ColRef
	if isIn {
		if len(names) != 1 {
			return nil, fmt.Errorf("bind: IN subquery must return exactly one column, got %d", len(names))
		}
		left, err := b.bindExpr(inExpr, sc, false)
		if err != nil {
			return nil, err
		}
		right := sub.Columns()[0]
		inCol = &plan.ColRef{ID: right, Typ: b.ctx.Type(right)}
		conds = append([]plan.Expr{&plan.Bin{Op: "=", L: left, R: inCol, Typ: types.TBool}}, conds...)
	}
	kind := plan.SemiJoin
	if anti {
		kind = plan.AntiJoin
	}
	join := &plan.Join{Kind: kind, Left: node, Right: sub, Cond: plan.AndAll(conds)}
	if anti && isIn {
		// The subquery's output column is fresh and defined above every
		// lifted conjunct, so x = y is the only conjunct that reads it.
		join.NotIn = inCol
	}
	if join.Cond == nil {
		join.Cond = plan.TrueExpr()
	}
	return join, nil
}

// liftCorrelated removes filter conjuncts referencing outer columns
// from the subquery's filter spine (above grouping/distinct/limit/union
// boundaries, and through inner joins) and returns them for use in the
// join condition.
func (b *Binder) liftCorrelated(n plan.Node, outerCols types.ColSet) (plan.Node, []plan.Expr, error) {
	switch n := n.(type) {
	case *plan.Filter:
		var keep, lift []plan.Expr
		for _, conj := range plan.Conjuncts(n.Cond) {
			if plan.ColsUsed(conj).Intersects(outerCols) {
				lift = append(lift, conj)
			} else {
				keep = append(keep, conj)
			}
		}
		input, deeper, err := b.liftCorrelated(n.Input, outerCols)
		if err != nil {
			return nil, nil, err
		}
		lift = append(lift, deeper...)
		if len(keep) == 0 {
			return input, lift, nil
		}
		n.Input = input
		n.Cond = plan.AndAll(keep)
		return n, lift, nil
	case *plan.Project:
		// Projections pass through; their expressions must not be
		// correlated (checked by the caller's leak test).
		input, lift, err := b.liftCorrelated(n.Input, outerCols)
		if err != nil {
			return nil, nil, err
		}
		n.Input = input
		return n, lift, nil
	case *plan.Join:
		if n.Kind == plan.InnerJoin || n.Kind == plan.CrossJoin {
			left, liftL, err := b.liftCorrelated(n.Left, outerCols)
			if err != nil {
				return nil, nil, err
			}
			right, liftR, err := b.liftCorrelated(n.Right, outerCols)
			if err != nil {
				return nil, nil, err
			}
			n.Left, n.Right = left, right
			return n, append(liftL, liftR...), nil
		}
		return n, nil, nil
	}
	return n, nil, nil
}

// exposeColumns widens pass-through operators so that the needed
// columns (defined somewhere in the subtree — at bind time only
// projections drop columns) appear in n's output. Distinct and GroupBy
// boundaries refuse (exposing extra columns would change semantics).
func (b *Binder) exposeColumns(n plan.Node, needed types.ColSet) bool {
	missing := needed.Difference(plan.ColumnsOf(n))
	if missing.Empty() {
		return true
	}
	switch n := n.(type) {
	case *plan.Project:
		if !b.exposeColumns(n.Input, missing) {
			return false
		}
		missing.ForEach(func(id types.ColumnID) {
			n.Cols = append(n.Cols, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: id, Typ: b.ctx.Type(id)}})
		})
		return true
	case *plan.Filter:
		return b.exposeColumns(n.Input, missing)
	case *plan.Sort:
		return b.exposeColumns(n.Input, missing)
	case *plan.Limit:
		return b.exposeColumns(n.Input, missing)
	case *plan.Join:
		if n.Kind != plan.InnerJoin && n.Kind != plan.CrossJoin && n.Kind != plan.LeftOuterJoin {
			return false
		}
		var leftMissing, rightMissing types.ColSet
		ok := true
		missing.ForEach(func(id types.ColumnID) {
			switch {
			case colDefinedIn(n.Left, id):
				leftMissing.Add(id)
			case colDefinedIn(n.Right, id):
				rightMissing.Add(id)
			default:
				ok = false
			}
		})
		if !ok {
			return false
		}
		if !leftMissing.Empty() && !b.exposeColumns(n.Left, leftMissing) {
			return false
		}
		if !rightMissing.Empty() && !b.exposeColumns(n.Right, rightMissing) {
			return false
		}
		return true
	}
	return false
}

// colDefinedIn reports whether any node in the subtree outputs the
// column.
func colDefinedIn(n plan.Node, id types.ColumnID) bool {
	for _, c := range n.Columns() {
		if c == id {
			return true
		}
	}
	for _, child := range n.Inputs() {
		if colDefinedIn(child, id) {
			return true
		}
	}
	return false
}

// subtreeOuterRefs returns the outer columns referenced anywhere in the
// subtree's expressions.
func subtreeOuterRefs(n plan.Node, outerCols types.ColSet) types.ColSet {
	var used types.ColSet
	var collect func(e plan.Expr)
	collect = func(e plan.Expr) {
		used = used.Union(plan.ColsUsed(e))
	}
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch n := n.(type) {
		case *plan.Project:
			for _, c := range n.Cols {
				collect(c.Expr)
			}
		case *plan.Filter:
			collect(n.Cond)
		case *plan.Join:
			collect(n.Cond)
		case *plan.GroupBy:
			for _, a := range n.Aggs {
				if a.Arg != nil {
					collect(a.Arg)
				}
			}
		case *plan.Values:
			for _, row := range n.Rows {
				for _, e := range row {
					collect(e)
				}
			}
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(n)
	return used.Intersect(outerCols)
}
