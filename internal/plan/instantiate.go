package plan

import (
	"slices"

	"vdm/internal/types"
)

// Instantiate returns the plan under root with every lifted literal set
// to vals[slot] (vals indexed by slot, as sql.Fingerprint returns them).
// It copies on write: a node is copied only when one of its expressions
// holds a literal whose value changes or one of its inputs was copied, so
// the result shares every other subtree with root, and root itself is
// never modified. With vals equal to the template's own literals it
// returns root.
func Instantiate(root Node, vals []types.Value) Node {
	relit := func(e Expr) Expr {
		if c, ok := e.(*Const); ok && c.Slot > 0 && c.Slot < len(vals) && vals[c.Slot] != c.Val {
			return &Const{Val: vals[c.Slot], Slot: c.Slot}
		}
		return e
	}
	rewrite := func(e Expr) Expr { return RewriteExpr(e, relit) }
	var inst func(n Node) Node
	inst = func(n Node) Node {
		switch n := n.(type) {
		case *Filter:
			in, cond := inst(n.Input), rewrite(n.Cond)
			if in == n.Input && cond == n.Cond {
				return n
			}
			return &Filter{Input: in, Cond: cond}
		case *Project:
			in := inst(n.Input)
			var cols []ProjCol
			for i, c := range n.Cols {
				if x := rewrite(c.Expr); x != c.Expr {
					if cols == nil {
						cols = slices.Clone(n.Cols)
					}
					cols[i].Expr = x
				}
			}
			if in == n.Input && cols == nil {
				return n
			}
			if cols == nil {
				cols = n.Cols
			}
			return &Project{Input: in, Cols: cols}
		case *Join:
			l, r, cond := inst(n.Left), inst(n.Right), rewrite(n.Cond)
			if l == n.Left && r == n.Right && cond == n.Cond {
				return n
			}
			cp := *n
			cp.Left, cp.Right, cp.Cond = l, r, cond
			return &cp
		case *GroupBy:
			in := inst(n.Input)
			var aggs []AggCol
			for i, a := range n.Aggs {
				if x := rewrite(a.Arg); x != a.Arg {
					if aggs == nil {
						aggs = slices.Clone(n.Aggs)
					}
					aggs[i].Arg = x
				}
			}
			if in == n.Input && aggs == nil {
				return n
			}
			if aggs == nil {
				aggs = n.Aggs
			}
			return &GroupBy{Input: in, GroupCols: n.GroupCols, Aggs: aggs}
		case *UnionAll:
			var children []Node
			for i, c := range n.Children {
				if x := inst(c); x != c {
					if children == nil {
						children = slices.Clone(n.Children)
					}
					children[i] = x
				}
			}
			if children == nil {
				return n
			}
			return &UnionAll{Children: children, Cols: n.Cols}
		case *Values:
			var rows [][]Expr
			for i, row := range n.Rows {
				if x := rewriteExprs(row, relit); x != nil {
					if rows == nil {
						rows = slices.Clone(n.Rows)
					}
					rows[i] = x
				}
			}
			if rows == nil {
				return n
			}
			return &Values{Cols: n.Cols, Rows: rows}
		case *Sort:
			if in := inst(n.Input); in != n.Input {
				return &Sort{Input: in, Keys: n.Keys}
			}
		case *Limit:
			if in := inst(n.Input); in != n.Input {
				return &Limit{Input: in, Count: n.Count, Offset: n.Offset}
			}
		case *Distinct:
			if in := inst(n.Input); in != n.Input {
				return &Distinct{Input: in}
			}
		}
		return n // Scan, and operators whose input is unchanged
	}
	return inst(root)
}
