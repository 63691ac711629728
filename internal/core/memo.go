package core

import (
	"fmt"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// facts are the derived facts of one plan node that the rewrite rules
// consult: its output column set and its logical properties. During an
// Optimize call each is computed at most once per node and kept in
// Optimizer.memo, so a rule at a join asks for the facts of the subtree
// below it without re-deriving them at every ancestor. A memoized value
// is shared and never modified.
//
// Invalidation follows the walks. Every rewrite advances o.rewrites and
// forgets the nodes it modified in place (rewrote); every walk forgets
// the node it visits if the counter moved during the visit (settle). So
// a change drops the facts of the changed nodes and of their ancestors,
// and nothing else.
type facts struct {
	cols    types.ColSet
	hasCols bool
	props   *props
}

// entry returns n's memo entry, creating it; nil outside Optimize, where
// facts are computed afresh on every request.
func (o *Optimizer) entry(n plan.Node) *facts {
	if o.memo == nil {
		return nil
	}
	f := o.memo[n]
	if f == nil {
		f = &facts{}
		o.memo[n] = f
	}
	return f
}

// forget drops n's memoized facts.
func (o *Optimizer) forget(n plan.Node) {
	delete(o.memo, n)
}

// rewrote counts one rewrite and forgets the nodes it modified in place.
func (o *Optimizer) rewrote(modified ...plan.Node) {
	o.rewrites++
	for _, n := range modified {
		o.forget(n)
	}
}

// settle forgets n when a rewrite happened since the counter read since.
// Each walk defers it on entry to every node it visits.
func (o *Optimizer) settle(n plan.Node, since int) {
	if o.rewrites != since {
		o.forget(n)
	}
}

// cols returns the set of n's output columns.
func (o *Optimizer) cols(n plan.Node) types.ColSet {
	f := o.entry(n)
	if f != nil && f.hasCols {
		if memoAudit {
			o.audit(n, "cols", f.cols.Equals(o.fresh().cols(n)))
		}
		return f.cols
	}
	o.derived++
	s := o.computeCols(n)
	if f != nil {
		f.cols, f.hasCols = s, true
	}
	return s
}

// computeCols builds n's column set from its inputs' sets, without the
// ordered column lists plan.Node.Columns copies at every level.
func (o *Optimizer) computeCols(n plan.Node) types.ColSet {
	var s types.ColSet
	switch n := n.(type) {
	case *plan.Filter:
		return o.cols(n.Input)
	case *plan.Sort:
		return o.cols(n.Input)
	case *plan.Limit:
		return o.cols(n.Input)
	case *plan.Distinct:
		return o.cols(n.Input)
	case *plan.Join:
		if n.Kind == plan.SemiJoin || n.Kind == plan.AntiJoin {
			return o.cols(n.Left)
		}
		return o.cols(n.Left).Union(o.cols(n.Right))
	case *plan.Project:
		for _, c := range n.Cols {
			s.Add(c.ID)
		}
	case *plan.GroupBy:
		for _, g := range n.GroupCols {
			s.Add(g)
		}
		for _, a := range n.Aggs {
			s.Add(a.ID)
		}
	default: // Scan, UnionAll, Values hold their column list
		for _, c := range n.Columns() {
			s.Add(c)
		}
	}
	return s
}

// deriveProps returns n's logical properties.
func (o *Optimizer) deriveProps(n plan.Node) *props {
	f := o.entry(n)
	if f != nil && f.props != nil {
		if memoAudit {
			o.audit(n, "props", f.props.equals(o.fresh().deriveProps(n)))
		}
		return f.props
	}
	o.derived++
	p := o.computeProps(n)
	if f != nil {
		f.props = p
	}
	return p
}

// fresh returns an optimizer with the same capabilities and no memo: it
// derives every fact from the plan as it stands.
func (o *Optimizer) fresh() *Optimizer {
	return &Optimizer{ctx: o.ctx, caps: o.caps}
}

// audit panics when a memoized fact disagrees with a fresh derivation:
// some rewrite changed the plan below n without forgetting n.
func (o *Optimizer) audit(n plan.Node, fact string, ok bool) {
	if !ok {
		panic(fmt.Sprintf("core: stale memoized %s at %s (pass %d)", fact, plan.Describe(o.ctx, n), o.pass))
	}
}

// equals compares two property sets field by field, keys in order.
func (p *props) equals(q *props) bool {
	if !p.out.Equals(q.out) || !p.notNull.Equals(q.notNull) ||
		len(p.keys) != len(q.keys) || len(p.consts) != len(q.consts) {
		return false
	}
	for i := range p.keys {
		if !p.keys[i].Equals(q.keys[i]) {
			return false
		}
	}
	for id, v := range p.consts {
		w, ok := q.consts[id]
		if !ok || v.Slot != w.Slot || v.Val.Typ != w.Val.Typ || !types.Equal(v.Val, w.Val) {
			return false
		}
	}
	return true
}
