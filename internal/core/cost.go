package core

import (
	"fmt"

	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/stats"
)

// Cost-based planning. The rewrite fixpoint in optimizer.go is purely
// rule-driven: it removes augmentation joins and pushes filters, but it
// never asks how large an input is. This file adds the two decisions
// the paper's §7 motivates as needing cardinality knowledge — which
// side of a hash join to build, and in what order to join the relations
// that survive UAJ/ASJ elimination — driven by the estimator in
// internal/stats over the statistics internal/storage maintains.
//
// Both decisions preserve the optimizer contract: the root's output
// columns (IDs and order) are unchanged. Build-side selection only
// flips a flag; join reordering wraps the rebuilt chain in a
// pass-through Project restoring the original column order. The build
// side also has one statistics-free rule, markBoundedBuilds, which
// Optimize runs last whether costing is on or off.

// SetCosting enables or disables the cost-based pass for subsequent
// Optimize calls. The pass is not a capability bit: §7 frames costing
// as an orthogonal need of every engine, not a rewrite some profiles
// lack, so the trace's skipped-rule report does not mention it.
func (o *Optimizer) SetCosting(on bool) { o.costing = on }

// Estimates returns the estimator's per-node row counts from the last
// Optimize call, keyed by plan node; nil when costing was off. Nodes
// discarded during reordering may linger in the map — callers look up
// by node, so stale entries are harmless.
func (o *Optimizer) Estimates() map[plan.Node]float64 {
	if o.est == nil {
		return nil
	}
	return o.est.Estimates()
}

// costPass runs after the rewrite fixpoint: greedy reordering of inner
// join chains first (it changes the tree), then build-side selection
// over the final shape, then a full estimation sweep so EXPLAIN can
// annotate every operator.
func (o *Optimizer) costPass(root plan.Node) plan.Node {
	o.est = stats.New()
	root = o.reorderJoins(root)
	o.chooseBuildSides(root)
	o.est.EstRows(root)
	return root
}

// reorderable reports whether a join may be flattened into a reorder
// chain: plain inner joins only. CASE JOINs and cardinality-specified
// joins are chain boundaries — the §7 spec or §6.3 annotation applies
// to that particular join shape and must not be detached from it.
func reorderable(j *plan.Join) bool {
	return j.Kind == plan.InnerJoin && !j.CaseJoin && j.Card == sql.CardSpec{}
}

// reorderJoins walks the plan and greedily reorders every maximal chain
// of three or more reorderable inner joins.
func (o *Optimizer) reorderJoins(n plan.Node) plan.Node {
	if j, ok := n.(*plan.Join); ok && reorderable(j) {
		var rels []plan.Node
		var conds []plan.Expr
		flattenJoinChain(j, &rels, &conds)
		if len(rels) >= 3 {
			for i := range rels {
				rels[i] = o.reorderJoins(rels[i])
			}
			return o.greedyOrder(j, rels, conds)
		}
	}
	for i, c := range n.Inputs() {
		n.SetInput(i, o.reorderJoins(c))
	}
	return n
}

// flattenJoinChain collects the leaf relations and pooled conjuncts of
// a maximal reorderable join chain, leaves in original left-to-right
// order.
func flattenJoinChain(j *plan.Join, rels *[]plan.Node, conds *[]plan.Expr) {
	for _, side := range []plan.Node{j.Left, j.Right} {
		if cj, ok := side.(*plan.Join); ok && reorderable(cj) {
			flattenJoinChain(cj, rels, conds)
		} else {
			*rels = append(*rels, side)
		}
	}
	*conds = append(*conds, plan.Conjuncts(j.Cond)...)
}

// greedyOrder rebuilds the chain left-deep: start from the relation
// with the smallest estimate, then repeatedly join the connected
// relation minimizing the estimated intermediate size (falling back to
// the smallest unconnected relation, as a cross join, when the query
// graph is disconnected). Conjuncts attach at the first join that
// covers their columns. If the greedy order matches the original, the
// original tree is returned untouched; otherwise the new chain is
// wrapped in a pass-through Project restoring the original column
// order, keeping the root contract and positional parents (UnionAll)
// intact.
func (o *Optimizer) greedyOrder(orig *plan.Join, rels []plan.Node, conds []plan.Expr) plan.Node {
	n := len(rels)
	used := make([]bool, n)

	start := 0
	for i := 1; i < n; i++ {
		if o.est.EstRows(rels[i]) < o.est.EstRows(rels[start]) {
			start = i
		}
	}
	cur := rels[start]
	used[start] = true
	order := []int{start}
	condUsed := make([]bool, len(conds))

	for len(order) < n {
		curCols := plan.ColumnsOf(cur)
		best := -1
		var bestNode plan.Node
		bestEst := 0.0
		bestConnected := false
		var bestConds []int
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			relCols := plan.ColumnsOf(rels[i])
			union := curCols.Union(relCols)
			var applicable []int
			connected := false
			for ci, c := range conds {
				if condUsed[ci] {
					continue
				}
				cu := plan.ColsUsed(c)
				if !cu.SubsetOf(union) {
					continue
				}
				applicable = append(applicable, ci)
				if cu.Intersects(curCols) && cu.Intersects(relCols) {
					connected = true
				}
			}
			cand := candidateJoin(cur, rels[i], conds, applicable)
			est := o.est.EstRows(cand)
			better := best < 0 ||
				(connected && !bestConnected) ||
				(connected == bestConnected && est < bestEst)
			if better {
				best, bestNode, bestEst = i, cand, est
				bestConnected = connected
				bestConds = applicable
			}
		}
		cur = bestNode
		used[best] = true
		order = append(order, best)
		for _, ci := range bestConds {
			condUsed[ci] = true
		}
	}

	// Any conjunct still unattached (possible only when its columns span
	// no pair the greedy walk joined directly — defensive) goes into a
	// filter above the chain.
	var leftover []plan.Expr
	for ci, c := range conds {
		if !condUsed[ci] {
			leftover = append(leftover, c)
		}
	}
	if len(leftover) > 0 {
		cur = &plan.Filter{Input: cur, Cond: plan.AndAll(leftover)}
	}

	identity := true
	for i, idx := range order {
		if idx != i {
			identity = false
			break
		}
	}
	if identity {
		return orig
	}

	// Restore the original column order above the reordered chain.
	var pcols []plan.ProjCol
	for _, id := range orig.Columns() {
		pcols = append(pcols, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}})
	}
	out := &plan.Project{Input: cur, Cols: pcols}
	o.logEvent("cost-join-reorder", orig, 0, fmt.Sprintf(
		"%d-way inner join chain reordered by estimated cardinality; leading input est_rows=%.0f",
		n, o.est.EstRows(rels[order[0]])))
	return out
}

// candidateJoin builds the next left-deep step: an inner join carrying
// the applicable conjuncts, or a cross join when none apply.
func candidateJoin(left, right plan.Node, conds []plan.Expr, applicable []int) *plan.Join {
	if len(applicable) == 0 {
		return &plan.Join{Kind: plan.CrossJoin, Left: left, Right: right}
	}
	cs := make([]plan.Expr, 0, len(applicable))
	for _, ci := range applicable {
		cs = append(cs, conds[ci])
	}
	return &plan.Join{Kind: plan.InnerJoin, Left: left, Right: right, Cond: plan.AndAll(cs)}
}

// chooseBuildSides walks the final plan and sets Join.BuildLeft on
// every hash-joinable join whose left input is estimated smaller than
// its right, recording each decision in the trace with the driving
// estimates.
func (o *Optimizer) chooseBuildSides(n plan.Node) {
	for _, c := range n.Inputs() {
		o.chooseBuildSides(c)
	}
	j, ok := n.(*plan.Join)
	if !ok || (j.Kind != plan.InnerJoin && j.Kind != plan.LeftOuterJoin) || !hasEquiKey(j) {
		return
	}
	l := o.est.EstRows(j.Left)
	r := o.est.EstRows(j.Right)
	if l < r {
		j.BuildLeft = true
		o.logEvent("cost-build-side", j, 0,
			fmt.Sprintf("build on left: est_rows left=%.0f right=%.0f", l, r))
	}
}

// markBoundedBuilds sets Join.BuildLeft on every keyed inner or
// left-outer join whose left input, and not its right, is bounded by a
// LIMIT or a VALUES list: the anchor side of an augmentation join a
// limit was pushed across (§4.4) — the paper's point that limit pushdown
// "directly impacts which side of the join builds the hash table". It is
// Optimize's last step under every profile, costing on or off, so the
// flag alone decides the executors' build side.
func markBoundedBuilds(n plan.Node) {
	for _, c := range n.Inputs() {
		markBoundedBuilds(c)
	}
	j, ok := n.(*plan.Join)
	if ok && (j.Kind == plan.InnerJoin || j.Kind == plan.LeftOuterJoin) &&
		boundedSide(j.Left) && !boundedSide(j.Right) && hasEquiKey(j) {
		j.BuildLeft = true
	}
}

// boundedSide reports whether the subtree's row count is bounded by a
// LIMIT or a VALUES list reachable through row-preserving operators.
func boundedSide(n plan.Node) bool {
	switch n := n.(type) {
	case *plan.Limit:
		return n.Count >= 0
	case *plan.Project, *plan.Filter:
		return boundedSide(n.Inputs()[0])
	case *plan.Values:
		return true
	}
	return false
}

// hasEquiKey reports whether the join has at least one hashable equi
// conjunct (an equality whose sides split across the inputs) — the
// precondition for the executor's build-left variant.
func hasEquiKey(j *plan.Join) bool {
	leftCols := plan.ColumnsOf(j.Left)
	rightCols := plan.ColumnsOf(j.Right)
	for _, conj := range plan.Conjuncts(j.Cond) {
		eq, ok := conj.(*plan.Bin)
		if !ok || eq.Op != "=" {
			continue
		}
		lu, ru := plan.ColsUsed(eq.L), plan.ColsUsed(eq.R)
		if lu.Empty() || ru.Empty() {
			continue
		}
		if (lu.SubsetOf(leftCols) && ru.SubsetOf(rightCols)) ||
			(lu.SubsetOf(rightCols) && ru.SubsetOf(leftCols)) {
			return true
		}
	}
	return false
}
