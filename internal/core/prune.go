package core

import (
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// Cardinality endpoint aliases.
const (
	cardOne      = sql.CardOne
	cardExactOne = sql.CardExactOne
)

// prune is the combined top-down pass for column pruning, unused
// augmentation join elimination (§4.3), and distinct elimination:
// `required` is the set of columns the parent needs; everything else is
// removed where provably safe.
func (o *Optimizer) prune(n plan.Node, required types.ColSet) plan.Node {
	defer o.settle(n, o.rewrites)
	switch n := n.(type) {
	case *plan.Scan:
		var cols []types.ColumnID
		var ords []int
		for i, id := range n.Cols {
			if required.Contains(id) {
				cols = append(cols, id)
				ords = append(ords, n.Ords[i])
			}
		}
		if len(cols) != len(n.Cols) {
			n.Cols, n.Ords = cols, ords
			o.rewrote(n)
			o.log("prune-scan")
		}
		return n

	case *plan.Project:
		var cols []plan.ProjCol
		var childReq types.ColSet
		for _, c := range n.Cols {
			if required.Contains(c.ID) {
				cols = append(cols, c)
				childReq = childReq.Union(plan.ColsUsed(c.Expr))
			}
		}
		if len(cols) != len(n.Cols) {
			n.Cols = cols
			o.rewrote(n)
			o.log("prune-project")
		}
		n.Input = o.prune(n.Input, childReq)
		return n

	case *plan.Filter:
		childReq := required.Union(plan.ColsUsed(n.Cond))
		n.Input = o.prune(n.Input, childReq)
		return n

	case *plan.Join:
		return o.pruneJoin(n, required)

	case *plan.GroupBy:
		var aggs []plan.AggCol
		var childReq types.ColSet
		for _, g := range n.GroupCols {
			childReq.Add(g)
		}
		for _, a := range n.Aggs {
			if required.Contains(a.ID) {
				aggs = append(aggs, a)
				if a.Arg != nil {
					childReq = childReq.Union(plan.ColsUsed(a.Arg))
				}
			}
		}
		if len(aggs) != len(n.Aggs) {
			n.Aggs = aggs
			o.rewrote(n)
			o.log("prune-aggs")
		}
		n.Input = o.prune(n.Input, childReq)
		return n

	case *plan.UnionAll:
		return o.pruneUnion(n, required)

	case *plan.Sort:
		childReq := required.Copy()
		for _, k := range n.Keys {
			childReq.Add(k.Col)
		}
		n.Input = o.prune(n.Input, childReq)
		return n

	case *plan.Limit:
		n.Input = o.prune(n.Input, required)
		return n

	case *plan.Distinct:
		if o.caps.Has(CapDistinctElim) {
			if o.uniqueOnCols(n.Input, o.cols(n.Input)) {
				o.rewrote()
				o.log("distinct-elim")
				return o.prune(n.Input, required)
			}
		}
		// DISTINCT semantics depend on every input column; none may be
		// pruned below it.
		n.Input = o.prune(n.Input, o.cols(n.Input))
		return n

	case *plan.Values:
		var keepIdx []int
		var cols []types.ColumnID
		for i, id := range n.Cols {
			if required.Contains(id) {
				keepIdx = append(keepIdx, i)
				cols = append(cols, id)
			}
		}
		if len(cols) != len(n.Cols) {
			rows := make([][]plan.Expr, len(n.Rows))
			for ri, row := range n.Rows {
				nr := make([]plan.Expr, len(keepIdx))
				for k, idx := range keepIdx {
					nr[k] = row[idx]
				}
				rows[ri] = nr
			}
			n.Cols, n.Rows = cols, rows
			o.rewrote(n)
			o.log("prune-values")
		}
		return n
	}
	return n
}

// pruneJoin applies UAJ elimination and otherwise prunes both sides.
func (o *Optimizer) pruneJoin(j *plan.Join, required types.ColSet) plan.Node {
	rightCols := o.cols(j.Right)
	if !required.Intersects(rightCols) && o.isUnusedRemovableAJ(j) {
		o.rewrote()
		o.logEvent("uaj-elim", j, plan.CollectStats(j.Right).Joins+1,
			"unused augmentation join: augmenter columns unreferenced above")
		return o.prune(j.Left, required)
	}
	condCols := plan.ColsUsed(j.Cond)
	leftCols := o.cols(j.Left)
	leftReq := required.Union(condCols).Intersect(leftCols)
	rightReq := required.Union(condCols).Intersect(rightCols)
	j.Left = o.prune(j.Left, leftReq)
	j.Right = o.prune(j.Right, rightReq)
	return j
}

// isUnusedRemovableAJ decides whether the join is a pure augmentation of
// its left (anchor) side so it can be dropped when no augmenter column
// is referenced above. The cases follow the paper's taxonomy:
//
//	AJ 1  (inner, many-to-exact-one): a §7.3 EXACT ONE cardinality
//	      specification or a foreign key over NOT NULL columns (AJ 1a).
//	AJ 2  (left outer, many-to-(zero-or-)one): a §7.3 ONE/EXACT ONE
//	      specification, a derivable unique key on the bound join
//	      columns (AJ 2a-1/2/3, possibly through joins, order-by/limit,
//	      or Union All per Figures 5/12), or a statically-empty
//	      augmenter (AJ 2b).
func (o *Optimizer) isUnusedRemovableAJ(j *plan.Join) bool {
	switch j.Kind {
	case plan.LeftOuterJoin:
		if o.caps.Has(CapJoinCardSpec) &&
			(j.Card.Right == cardOne || j.Card.Right == cardExactOne) {
			return true
		}
		if o.isStaticallyEmpty(j.Right) {
			return true // AJ 2b
		}
		bound := o.boundJoinCols(j, false)
		return keyCovered(o.caps, o.deriveProps(j.Right), bound)
	case plan.InnerJoin:
		if o.caps.Has(CapJoinCardSpec) && j.Card.Right == cardExactOne {
			return true
		}
		if o.caps.Has(CapUAJInnerFK) && o.fkGuaranteesExactlyOne(j) {
			return true
		}
	}
	return false
}

// fkGuaranteesExactlyOne recognizes AJ 1a: an inner equi-join whose
// condition equates NOT NULL foreign-key columns of an anchor-side table
// with the full primary key of an unfiltered augmenter scan (possibly
// wrapped in pass-through projections, as when the referenced table is
// reached through a basic-layer view) of the referenced table.
func (o *Optimizer) fkGuaranteesExactlyOne(j *plan.Join) bool {
	branch, ok := analyzeAugBranch(j.Right)
	if !ok || len(branch.preds) > 0 {
		return false
	}
	scan := branch.scan
	var pk *plan.KeyInfo
	for i := range scan.Info.Keys {
		if scan.Info.Keys[i].Primary {
			pk = &scan.Info.Keys[i]
			break
		}
	}
	if pk == nil {
		return false
	}
	// Collect equalities left-col = right-col; every conjunct must be one.
	leftCols := o.cols(j.Left)
	rightByOrd := map[int]types.ColumnID{} // right table ordinal -> left column
	for _, conj := range plan.Conjuncts(j.Cond) {
		eq, ok := conj.(*plan.Bin)
		if !ok || eq.Op != "=" {
			return false
		}
		l, lok := eq.L.(*plan.ColRef)
		r, rok := eq.R.(*plan.ColRef)
		if !lok || !rok {
			return false
		}
		if leftCols.Contains(r.ID) {
			l, r = r, l
		}
		if !leftCols.Contains(l.ID) {
			return false
		}
		ord, ok := branch.colOrd[r.ID]
		if !ok {
			return false
		}
		rightByOrd[ord] = l.ID
	}
	// The equalities must cover exactly the primary key.
	if len(rightByOrd) != len(pk.Columns) {
		return false
	}
	leftKey := make([]types.ColumnID, len(pk.Columns))
	for i, ord := range pk.Columns {
		id, ok := rightByOrd[ord]
		if !ok {
			return false
		}
		leftKey[i] = id
	}
	// Left columns: NOT NULL and provenance matching a declared FK.
	lp := o.deriveProps(j.Left)
	var srcTable string
	var srcInstance int
	srcOrds := make([]int, len(leftKey))
	for i, id := range leftKey {
		if !lp.notNull.Contains(id) {
			return false
		}
		s, ok := o.sourceOf(j.Left, id)
		if !ok {
			return false
		}
		if i == 0 {
			srcTable, srcInstance = s.table, s.instance
		} else if s.table != srcTable || s.instance != srcInstance {
			return false
		}
		srcOrds[i] = s.ord
	}
	// Find a matching FK on the source table referencing the augmenter.
	inst := instancesIn(j.Left)
	var srcScan *plan.Scan
	for _, s := range inst {
		if s.Instance == srcInstance {
			srcScan = s
			break
		}
	}
	if srcScan == nil {
		return false
	}
	for _, fk := range srcScan.Info.FKs {
		if !equalsFold(fk.RefTable, scan.Info.Name) || len(fk.Columns) != len(srcOrds) {
			continue
		}
		match := true
		for i := range srcOrds {
			if fk.Columns[i] != srcOrds[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func equalsFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// pruneUnion narrows a Union All to the required positions, keeping the
// children positionally aligned (wrapping a child in a pass-through
// projection when pruning left extra columns in it).
func (o *Optimizer) pruneUnion(u *plan.UnionAll, required types.ColSet) plan.Node {
	var keepPos []int
	var cols []types.ColumnID
	for pos, id := range u.Cols {
		if required.Contains(id) {
			keepPos = append(keepPos, pos)
			cols = append(cols, id)
		}
	}
	if len(cols) != len(u.Cols) {
		o.rewrote(u)
		o.log("prune-union")
	}
	for i, c := range u.Children {
		childCols := c.Columns()
		var childReqIDs []types.ColumnID
		var childReq types.ColSet
		for _, pos := range keepPos {
			childReqIDs = append(childReqIDs, childCols[pos])
			childReq.Add(childCols[pos])
		}
		pruned := o.prune(c, childReq)
		if !columnsEqual(pruned.Columns(), childReqIDs) {
			// Re-align positions with a pass-through projection.
			var pc []plan.ProjCol
			for _, id := range childReqIDs {
				pc = append(pc, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}})
			}
			pruned = &plan.Project{Input: pruned, Cols: pc}
		}
		u.Children[i] = pruned
	}
	u.Cols = cols
	return u
}

func columnsEqual(a, b []types.ColumnID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
