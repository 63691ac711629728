package core

import (
	"fmt"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// pushFilters moves filter conjuncts toward the leaves: through
// projections (by substitution), into the qualifying side of joins, into
// every child of a Union All, below grouping (for group-column
// predicates), and below sorts and distincts.
func (o *Optimizer) pushFilters(n plan.Node) plan.Node {
	defer o.settle(n, o.rewrites)
	switch n := n.(type) {
	case *plan.Filter:
		if out := o.pushFilterOnce(n); out != nil {
			return o.pushFilters(out)
		}
	}
	for i, c := range n.Inputs() {
		n.SetInput(i, o.pushFilters(c))
	}
	return n
}

// pushFilterOnce attempts one pushdown step for a filter; nil means no
// rewrite applies.
func (o *Optimizer) pushFilterOnce(f *plan.Filter) plan.Node {
	switch child := f.Input.(type) {
	case *plan.Filter:
		// Merge adjacent filters.
		child.Cond = plan.AndAll(append(plan.Conjuncts(child.Cond), plan.Conjuncts(f.Cond)...))
		o.rewrote(child)
		o.log("filter-merge")
		return child

	case *plan.Project:
		// Substitute projected expressions into the condition and move
		// the filter below the projection.
		subs := map[types.ColumnID]plan.Expr{}
		for _, c := range child.Cols {
			subs[c.ID] = c.Expr
		}
		cond := plan.SubstituteColumns(f.Cond, subs)
		child.Input = &plan.Filter{Input: child.Input, Cond: cond}
		o.rewrote(child)
		o.log("filter-through-project")
		return child

	case *plan.Join:
		if child.Kind == plan.CrossJoin {
			return nil
		}
		leftCols, rightCols := o.cols(child.Left), o.cols(child.Right)
		var leftPush, rightPush, keep []plan.Expr
		for _, conj := range plan.Conjuncts(f.Cond) {
			used := plan.ColsUsed(conj)
			switch {
			case used.SubsetOf(leftCols):
				leftPush = append(leftPush, conj)
			case used.SubsetOf(rightCols) && child.Kind == plan.InnerJoin:
				rightPush = append(rightPush, conj)
			default:
				keep = append(keep, conj)
			}
		}
		if len(leftPush) == 0 && len(rightPush) == 0 {
			return nil
		}
		if len(leftPush) > 0 {
			child.Left = &plan.Filter{Input: child.Left, Cond: plan.AndAll(leftPush)}
		}
		if len(rightPush) > 0 {
			child.Right = &plan.Filter{Input: child.Right, Cond: plan.AndAll(rightPush)}
		}
		o.rewrote(child, f)
		o.log("filter-through-join")
		if len(keep) == 0 {
			return child
		}
		f.Cond = plan.AndAll(keep)
		return f

	case *plan.UnionAll:
		// Push a positional remap of the filter into every child.
		for i, uc := range child.Children {
			m := map[types.ColumnID]types.ColumnID{}
			ucCols := uc.Columns()
			for pos, id := range child.Cols {
				m[id] = ucCols[pos]
			}
			cond := plan.RemapColumns(f.Cond, m)
			child.Children[i] = &plan.Filter{Input: uc, Cond: cond}
		}
		o.rewrote(child)
		o.log("filter-through-union")
		return child

	case *plan.GroupBy:
		groupSet := types.MakeColSet(child.GroupCols...)
		var push, keep []plan.Expr
		for _, conj := range plan.Conjuncts(f.Cond) {
			if plan.ColsUsed(conj).SubsetOf(groupSet) {
				push = append(push, conj)
			} else {
				keep = append(keep, conj)
			}
		}
		if len(push) == 0 {
			return nil
		}
		child.Input = &plan.Filter{Input: child.Input, Cond: plan.AndAll(push)}
		o.rewrote(child, f)
		o.log("filter-through-groupby")
		if len(keep) == 0 {
			return child
		}
		f.Cond = plan.AndAll(keep)
		return f

	case *plan.Sort:
		child.Input = &plan.Filter{Input: child.Input, Cond: f.Cond}
		o.rewrote(child)
		o.log("filter-through-sort")
		return child

	case *plan.Distinct:
		child.Input = &plan.Filter{Input: child.Input, Cond: f.Cond}
		o.rewrote(child)
		o.log("filter-through-distinct")
		return child
	}
	return nil
}

// pushLimits pushes LIMIT/OFFSET across row-preserving operators: below
// projections and — the paper's §4.4 optimization — across augmentation
// joins onto the anchor side.
func (o *Optimizer) pushLimits(n plan.Node) plan.Node {
	defer o.settle(n, o.rewrites)
	if lim, ok := n.(*plan.Limit); ok {
		switch child := lim.Input.(type) {
		case *plan.Project:
			// Limit(Project(x)) = Project(Limit(x)).
			lim.Input = child.Input
			child.Input = lim
			o.rewrote(lim, child)
			o.log("limit-through-project")
			return o.pushLimits(child)
		case *plan.Join:
			if o.isRowPreservingAJ(child) {
				// Limit over an augmentation join applies to the anchor:
				// the join neither filters nor duplicates anchor rows.
				lim.Input = child.Left
				child.Left = lim
				o.rewrote(lim, child)
				o.logEvent("limit-across-aj", child, 0,
					fmt.Sprintf("LIMIT %d pushed to the anchor side of a row-preserving augmentation join", lim.Count))
				return o.pushLimits(child)
			}
		case *plan.Limit:
			// Limit(a,o1) over Limit(b,o2): compose conservatively when
			// the outer has no offset and the inner no count.
			if lim.Offset == 0 && child.Count < 0 {
				child.Count = lim.Count
				o.rewrote(child)
				o.log("limit-merge")
				return o.pushLimits(child)
			}
		case *plan.UnionAll:
			// Each union child needs at most count+offset rows; the outer
			// limit still applies across children.
			if lim.Count >= 0 {
				need := lim.Count + lim.Offset
				pushedAny := false
				for i, uc := range child.Children {
					if hasTightLimit(uc, need) {
						continue // already bounded
					}
					child.Children[i] = &plan.Limit{Input: uc, Count: need}
					pushedAny = true
				}
				if pushedAny {
					o.rewrote(child)
					o.log("limit-into-union")
				}
			}
		}
	}
	for i, c := range n.Inputs() {
		n.SetInput(i, o.pushLimits(c))
	}
	return n
}

// hasTightLimit reports whether the subtree is already bounded to at
// most `need` rows by a limit reachable through row-preserving
// operators (projections and tighter limits).
func hasTightLimit(n plan.Node, need int64) bool {
	switch n := n.(type) {
	case *plan.Limit:
		return n.Count >= 0 && n.Count <= need
	case *plan.Project:
		return hasTightLimit(n.Input, need)
	}
	return false
}

// isRowPreservingAJ reports whether the join is a pure augmentation of
// its left child: every left row appears exactly once in the output.
func (o *Optimizer) isRowPreservingAJ(j *plan.Join) bool {
	switch j.Kind {
	case plan.LeftOuterJoin:
		if o.caps.Has(CapJoinCardSpec) &&
			(j.Card.Right == cardOne || j.Card.Right == cardExactOne) {
			return true
		}
		bound := o.boundJoinCols(j, false)
		if keyCovered(o.caps, o.deriveProps(j.Right), bound) {
			return true
		}
		return o.isStaticallyEmpty(j.Right)
	case plan.InnerJoin:
		// Inner joins require an exactly-one guarantee.
		if o.caps.Has(CapJoinCardSpec) && j.Card.Right == cardExactOne {
			return true
		}
		if o.caps.Has(CapUAJInnerFK) && o.fkGuaranteesExactlyOne(j) {
			return true
		}
	}
	return false
}

// isStaticallyEmpty reports whether the subtree provably yields no rows
// (the AJ 2b case: left outer join with an empty relation).
func (o *Optimizer) isStaticallyEmpty(n plan.Node) bool {
	switch n := n.(type) {
	case *plan.Values:
		return len(n.Rows) == 0
	case *plan.Filter:
		return isFalseOrNullConst(o.fold(n.Cond)) || o.isStaticallyEmpty(n.Input)
	case *plan.Project:
		return o.isStaticallyEmpty(n.Input)
	case *plan.Sort:
		return o.isStaticallyEmpty(n.Input)
	case *plan.Distinct:
		return o.isStaticallyEmpty(n.Input)
	case *plan.Limit:
		return n.Count == 0 || o.isStaticallyEmpty(n.Input)
	case *plan.Join:
		switch n.Kind {
		case plan.InnerJoin, plan.CrossJoin:
			return o.isStaticallyEmpty(n.Left) || o.isStaticallyEmpty(n.Right)
		case plan.LeftOuterJoin:
			return o.isStaticallyEmpty(n.Left)
		}
	case *plan.UnionAll:
		for _, c := range n.Children {
			if !o.isStaticallyEmpty(c) {
				return false
			}
		}
		return true
	case *plan.GroupBy:
		return len(n.GroupCols) > 0 && o.isStaticallyEmpty(n.Input)
	}
	return false
}
