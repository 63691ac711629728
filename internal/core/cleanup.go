package core

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// cleanup normalizes the tree after the other passes: merges adjacent
// projections, drops identity projections and no-op limits, and
// collapses single-child unions.
func (o *Optimizer) cleanup(n plan.Node) plan.Node {
	defer o.settle(n, o.rewrites)
	for i, c := range n.Inputs() {
		n.SetInput(i, o.cleanup(c))
	}
	switch n := n.(type) {
	case *plan.Project:
		if inner, ok := n.Input.(*plan.Project); ok {
			// Merge Project(Project(x)) by substitution.
			subs := map[types.ColumnID]plan.Expr{}
			for _, c := range inner.Cols {
				subs[c.ID] = c.Expr
			}
			for i := range n.Cols {
				n.Cols[i].Expr = plan.SubstituteColumns(n.Cols[i].Expr, subs)
			}
			n.Input = inner.Input
			o.rewrote(n)
			o.log("project-merge")
			return o.cleanup(n)
		}
		if isIdentityProject(n) {
			o.rewrote()
			o.log("project-identity-elim")
			return n.Input
		}
	case *plan.Limit:
		if n.Count < 0 && n.Offset == 0 {
			o.rewrote()
			o.log("limit-noop-elim")
			return n.Input
		}
	case *plan.UnionAll:
		if len(n.Children) == 1 {
			child := n.Children[0]
			childCols := child.Columns()
			var pc []plan.ProjCol
			for pos, id := range n.Cols {
				pc = append(pc, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: childCols[pos], Typ: o.ctx.Type(id)}})
			}
			o.rewrote()
			o.log("union-single-elim")
			return o.cleanup(&plan.Project{Input: child, Cols: pc})
		}
	}
	return n
}

// isIdentityProject reports whether the projection outputs exactly its
// input columns, in order, unchanged.
func isIdentityProject(p *plan.Project) bool {
	in := p.Input.Columns()
	if len(in) != len(p.Cols) {
		return false
	}
	for i, c := range p.Cols {
		cr, ok := c.Expr.(*plan.ColRef)
		if !ok || cr.ID != in[i] || c.ID != in[i] {
			return false
		}
	}
	return true
}
