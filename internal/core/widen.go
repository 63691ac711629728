package core

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// slotSrc describes how one widening slot is produced for one anchor
// union child: either a table ordinal of the child's matched instance or
// a per-child constant (branch ID columns of the augmenter), which is
// placed in the plan as it is, slot and all.
type slotSrc struct {
	ord    int
	constV *plan.Const
}

// widenTarget identifies where new columns must be surfaced from:
// either one scan instance (union == nil) or an anchor Union All with a
// matched instance per child.
type widenTarget struct {
	// single-instance target
	instance int
	ords     []int // slot -> table ordinal

	// union target
	union      *plan.UnionAll
	childInsts []int
	childSlots [][]slotSrc // per child, per slot

	nSlots int
}

// containsWidenTarget reports whether the subtree holds the target.
func containsWidenTarget(n plan.Node, t *widenTarget) bool {
	if t.union != nil {
		found := false
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			if n == plan.Node(t.union) {
				found = true
				return
			}
			for _, c := range n.Inputs() {
				walk(c)
			}
		}
		walk(n)
		return found
	}
	_, ok := instancesIn(n)[t.instance]
	return ok
}

// widen rewrites the subtree so that the target's slot columns are
// exposed in the node's output, returning the slot column IDs. It
// refuses to cross operators that would change semantics (GroupBy,
// Distinct) — the paper's "projection operations don't block ASJ
// optimization" observation implemented literally: only projections are
// modified, everything else passes columns through. Every node widen
// reaches may change below or in itself, so its facts are forgotten.
func (o *Optimizer) widen(n plan.Node, t *widenTarget) (plan.Node, []types.ColumnID, bool) {
	o.forget(n)
	switch n := n.(type) {
	case *plan.Scan:
		if t.union != nil || n.Instance != t.instance {
			return nil, nil, false
		}
		m := make([]types.ColumnID, t.nSlots)
		for slot, ord := range t.ords {
			pos := n.OrdOf(ord)
			if pos < 0 {
				col := n.Info.Schema[ord]
				id := o.ctx.NewColumn(col.Name, col.Type)
				n.Cols = append(n.Cols, id)
				n.Ords = append(n.Ords, ord)
				m[slot] = id
			} else {
				m[slot] = n.Cols[pos]
			}
		}
		return n, m, true

	case *plan.Project:
		input, m, ok := o.widen(n.Input, t)
		if !ok {
			return nil, nil, false
		}
		n.Input = input
		out := make([]types.ColumnID, t.nSlots)
		for slot, id := range m {
			// Reuse an existing pass-through if present.
			reused := types.ColumnID(-1)
			for _, c := range n.Cols {
				if cr, isCR := c.Expr.(*plan.ColRef); isCR && cr.ID == id {
					reused = c.ID
					break
				}
			}
			if reused >= 0 {
				out[slot] = reused
				continue
			}
			fresh := o.ctx.NewColumn(o.ctx.Name(id), o.ctx.Type(id))
			n.Cols = append(n.Cols, plan.ProjCol{ID: fresh, Expr: &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}})
			out[slot] = fresh
		}
		return n, out, true

	case *plan.Filter:
		input, m, ok := o.widen(n.Input, t)
		if !ok {
			return nil, nil, false
		}
		n.Input = input
		return n, m, true

	case *plan.Sort:
		input, m, ok := o.widen(n.Input, t)
		if !ok {
			return nil, nil, false
		}
		n.Input = input
		return n, m, true

	case *plan.Limit:
		input, m, ok := o.widen(n.Input, t)
		if !ok {
			return nil, nil, false
		}
		n.Input = input
		return n, m, true

	case *plan.Join:
		if containsWidenTarget(n.Left, t) {
			left, m, ok := o.widen(n.Left, t)
			if !ok {
				return nil, nil, false
			}
			n.Left = left
			return n, m, true
		}
		if containsWidenTarget(n.Right, t) {
			// Exposing augmenter ordinals from the null-producing side of
			// a left outer join is still value-correct for re-wiring:
			// NULL-extended rows yield NULL, matching the eliminated
			// join's behaviour (the nullability analysis happened during
			// matching).
			right, m, ok := o.widen(n.Right, t)
			if !ok {
				return nil, nil, false
			}
			n.Right = right
			return n, m, true
		}
		return nil, nil, false

	case *plan.UnionAll:
		if t.union == nil || n != t.union {
			return nil, nil, false
		}
		return o.widenUnion(n, t)
	}
	return nil, nil, false
}

// widenUnion surfaces the slot columns through an anchor Union All: each
// child is widened for its own matched instance (or given its per-child
// constant) and wrapped in a re-aligning projection, and fresh union
// output columns are appended.
func (o *Optimizer) widenUnion(u *plan.UnionAll, t *widenTarget) (plan.Node, []types.ColumnID, bool) {
	for i, child := range u.Children {
		origCols := child.Columns()
		slots := t.childSlots[i]
		// Ordinal slots require widening the child's instance.
		var ords []int
		var ordSlots []int
		for s, src := range slots {
			if src.constV == nil {
				ords = append(ords, src.ord)
				ordSlots = append(ordSlots, s)
			}
		}
		childCols := make([]types.ColumnID, t.nSlots)
		newChild := child
		if len(ords) > 0 {
			sub := &widenTarget{instance: t.childInsts[i], ords: ords, nSlots: len(ords)}
			var m []types.ColumnID
			var ok bool
			newChild, m, ok = o.widen(child, sub)
			if !ok {
				return nil, nil, false
			}
			for k, s := range ordSlots {
				childCols[s] = m[k]
			}
		}
		// Re-align: original positions first, then slot columns.
		var pc []plan.ProjCol
		for _, id := range origCols {
			pc = append(pc, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}})
		}
		for s, src := range slots {
			var e plan.Expr
			var typ types.Type
			if src.constV != nil {
				e = src.constV
				typ = src.constV.Val.Typ
			} else {
				e = &plan.ColRef{ID: childCols[s], Typ: o.ctx.Type(childCols[s])}
				typ = o.ctx.Type(childCols[s])
			}
			id := o.ctx.NewColumn("__asj", typ)
			pc = append(pc, plan.ProjCol{ID: id, Expr: e})
		}
		u.Children[i] = &plan.Project{Input: newChild, Cols: pc}
	}
	out := make([]types.ColumnID, t.nSlots)
	for s := 0; s < t.nSlots; s++ {
		// Type from the first child's slot column.
		first := u.Children[0].(*plan.Project)
		typ := first.Cols[len(first.Cols)-t.nSlots+s].Expr.Type()
		id := o.ctx.NewColumn("__asj", typ)
		u.Cols = append(u.Cols, id)
		out[s] = id
	}
	return u, out, true
}

// resolveToUnion walks pass-through operators from n down to a Union All
// whose outputs carry all the given columns, returning the union, the
// position of each column, and the number of interposed operators.
func (o *Optimizer) resolveToUnion(n plan.Node, cols []types.ColumnID) (*plan.UnionAll, map[types.ColumnID]int, int, bool) {
	remap := map[types.ColumnID]types.ColumnID{}
	for _, c := range cols {
		remap[c] = c
	}
	depth := 0
	for {
		switch cur := n.(type) {
		case *plan.UnionAll:
			posOf := map[types.ColumnID]int{}
			for _, orig := range cols {
				id := remap[orig]
				pos := -1
				for p, uc := range cur.Cols {
					if uc == id {
						pos = p
						break
					}
				}
				if pos < 0 {
					return nil, nil, 0, false
				}
				posOf[orig] = pos
			}
			return cur, posOf, depth, true
		case *plan.Filter:
			n = cur.Input
			depth++
		case *plan.Sort:
			n = cur.Input
			depth++
		case *plan.Limit:
			n = cur.Input
			depth++
		case *plan.Project:
			for _, orig := range cols {
				id := remap[orig]
				found := false
				for _, pc := range cur.Cols {
					if pc.ID != id {
						continue
					}
					cr, isCR := pc.Expr.(*plan.ColRef)
					if !isCR {
						return nil, nil, 0, false
					}
					remap[orig] = cr.ID
					found = true
					break
				}
				if !found {
					return nil, nil, 0, false
				}
			}
			n = cur.Input
			depth++
		case *plan.Join:
			left := o.cols(cur.Left)
			all := true
			for _, orig := range cols {
				if !left.Contains(remap[orig]) {
					all = false
					break
				}
			}
			if all {
				n = cur.Left
				continue
			}
			side := o.cols(cur.Right)
			for _, orig := range cols {
				if !side.Contains(remap[orig]) {
					return nil, nil, 0, false
				}
			}
			n = cur.Right
		default:
			return nil, nil, 0, false
		}
	}
}
