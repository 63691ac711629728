package core

import (
	"slices"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// props are the derived logical properties of a plan node's output.
type props struct {
	// out is the set of output columns.
	out types.ColSet
	// keys holds candidate keys: column sets that are unique over the
	// output. An empty ColSet means the node produces at most one row.
	keys []types.ColSet
	// consts maps output columns known to hold a single constant value
	// (from equality filters or constant projections) to that constant.
	// The Const itself is kept, slot and all, so a rule that reads its
	// value can pin it.
	consts map[types.ColumnID]*plan.Const
	// notNull is the set of output columns that can never be NULL.
	notNull types.ColSet
}

const maxKeys = 12

func (p *props) addKey(k types.ColSet) {
	for _, e := range p.keys {
		if e.Equals(k) {
			return
		}
	}
	if len(p.keys) < maxKeys {
		p.keys = append(p.keys, k)
	}
}

// setConst records that column id holds v; consts is allocated on the
// first constant.
func (p *props) setConst(id types.ColumnID, v *plan.Const) {
	if p.consts == nil {
		p.consts = map[types.ColumnID]*plan.Const{}
	}
	p.consts[id] = v
}

// constCols returns the set of constant output columns.
func (p *props) constCols() types.ColSet {
	var s types.ColSet
	for id := range p.consts {
		s.Add(id)
	}
	return s
}

// computeProps derives n's logical properties from its inputs' (through
// the memo), honoring the optimizer's capability gates (a capability a
// system lacks means that system cannot derive the corresponding
// property, which is how the paper's Tables 1–4 observations arise).
// Inputs' properties are shared, never modified: key lists taken over are
// clipped so that adding a key copies them.
func (o *Optimizer) computeProps(n plan.Node) *props {
	p := &props{out: o.cols(n)}
	switch n := n.(type) {
	case *plan.Scan:
		if o.caps.Has(CapUAJUniqueKey) {
			for _, k := range n.Info.Keys {
				var set types.ColSet
				ok := true
				for _, ord := range k.Columns {
					pos := n.OrdOf(ord)
					if pos < 0 {
						ok = false
						break
					}
					set.Add(n.Cols[pos])
				}
				if ok {
					p.addKey(set)
				}
			}
		}
		for i, ord := range n.Ords {
			col := n.Info.Schema[ord]
			if col.NotNull {
				p.notNull.Add(n.Cols[i])
			}
		}
		for _, k := range n.Info.Keys {
			if !k.Primary {
				continue
			}
			for _, ord := range k.Columns {
				if pos := n.OrdOf(ord); pos >= 0 {
					p.notNull.Add(n.Cols[pos])
				}
			}
		}

	case *plan.Filter:
		in := o.deriveProps(n.Input)
		p.keys = clipKeys(in.keys)
		p.notNull = in.notNull.Copy()
		for k, v := range in.consts {
			p.setConst(k, v)
		}
		for _, conj := range plan.Conjuncts(n.Cond) {
			switch c := conj.(type) {
			case *plan.Bin:
				if c.Op == "=" {
					if cr, ok := c.L.(*plan.ColRef); ok {
						if k, ok := c.R.(*plan.Const); ok && !k.Val.IsNull() {
							p.setConst(cr.ID, k)
							p.notNull.Add(cr.ID)
						}
					}
					if cr, ok := c.R.(*plan.ColRef); ok {
						if k, ok := c.L.(*plan.Const); ok && !k.Val.IsNull() {
							p.setConst(cr.ID, k)
							p.notNull.Add(cr.ID)
						}
					}
				}
			case *plan.IsNullExpr:
				if c.Not {
					if cr, ok := c.E.(*plan.ColRef); ok {
						p.notNull.Add(cr.ID)
					}
				}
			}
		}

	case *plan.Project:
		in := o.deriveProps(n.Input)
		// alias: input column -> one of its pass-through output columns
		alias := map[types.ColumnID]types.ColumnID{}
		for _, c := range n.Cols {
			switch e := c.Expr.(type) {
			case *plan.ColRef:
				if _, ok := alias[e.ID]; !ok {
					alias[e.ID] = c.ID
				}
				if v, ok := in.consts[e.ID]; ok {
					p.setConst(c.ID, v)
				}
				if in.notNull.Contains(e.ID) {
					p.notNull.Add(c.ID)
				}
			case *plan.Const:
				if !e.Val.IsNull() {
					p.setConst(c.ID, e)
					p.notNull.Add(c.ID)
				}
			}
		}
		for _, k := range in.keys {
			var mapped types.ColSet
			ok := true
			k.ForEach(func(id types.ColumnID) {
				to, has := alias[id]
				if !has {
					ok = false
					return
				}
				mapped.Add(to)
			})
			if ok {
				p.addKey(mapped)
			}
		}

	case *plan.Join:
		if n.Kind == plan.SemiJoin || n.Kind == plan.AntiJoin {
			// Semi/anti joins filter the left side: keys, constants, and
			// non-null columns carry over unchanged.
			in := o.deriveProps(n.Left)
			p.keys = clipKeys(in.keys)
			p.consts = in.consts
			p.notNull = in.notNull
			return p
		}
		lp := o.deriveProps(n.Left)
		rp := o.deriveProps(n.Right)
		for k, v := range lp.consts {
			p.setConst(k, v)
		}
		p.notNull = lp.notNull.Copy()
		if n.Kind == plan.InnerJoin {
			for k, v := range rp.consts {
				p.setConst(k, v)
			}
			p.notNull = p.notNull.Union(rp.notNull)
		}
		if o.caps.Has(CapUAJThroughJoin) {
			rightUnique := o.joinSideUnique(n, rp, false)
			leftUnique := o.joinSideUnique(n, lp, true)
			if rightUnique {
				for _, k := range lp.keys {
					p.addKey(k)
				}
			}
			if leftUnique && n.Kind == plan.InnerJoin {
				for _, k := range rp.keys {
					p.addKey(k)
				}
			}
			for _, kl := range lp.keys {
				for _, kr := range rp.keys {
					p.addKey(kl.Union(kr))
				}
			}
		}

	case *plan.GroupBy:
		in := o.deriveProps(n.Input)
		if o.caps.Has(CapUAJGroupBy) {
			p.addKey(types.MakeColSet(n.GroupCols...))
		}
		for _, g := range n.GroupCols {
			if v, ok := in.consts[g]; ok {
				p.setConst(g, v)
			}
			if in.notNull.Contains(g) {
				p.notNull.Add(g)
			}
		}
		for _, a := range n.Aggs {
			if a.Op == plan.AggCount {
				p.notNull.Add(a.ID)
			}
		}

	case *plan.UnionAll:
		o.deriveUnionProps(n, p)

	case *plan.Sort:
		in := o.deriveProps(n.Input)
		if o.caps.Has(CapUAJOrderByLimit) {
			p.keys = clipKeys(in.keys)
		}
		p.consts = in.consts
		p.notNull = in.notNull

	case *plan.Limit:
		in := o.deriveProps(n.Input)
		if o.caps.Has(CapUAJOrderByLimit) {
			p.keys = clipKeys(in.keys)
		}
		if n.Count >= 0 && n.Count <= 1 {
			p.addKey(types.ColSet{})
		}
		p.consts = in.consts
		p.notNull = in.notNull

	case *plan.Distinct:
		in := o.deriveProps(n.Input)
		p.keys = append([]types.ColSet(nil), in.keys...)
		p.addKey(p.out.Copy())
		p.consts = in.consts
		p.notNull = in.notNull

	case *plan.Values:
		if len(n.Rows) <= 1 {
			p.addKey(types.ColSet{})
		}
		for i, id := range n.Cols {
			if len(n.Rows) == 0 {
				continue
			}
			allConst := true
			var v *plan.Const
			for ri, row := range n.Rows {
				c, ok := row[i].(*plan.Const)
				if !ok || c.Val.IsNull() {
					allConst = false
					break
				}
				if ri == 0 {
					v = c
				} else if !o.sameConst(v, c) {
					allConst = false
					break
				}
			}
			if allConst {
				p.setConst(id, v)
				p.notNull.Add(id)
			}
		}
	}
	// AJ 2a-3: a composite key whose remaining columns are bound to
	// constants stays a key with those columns removed. Registering the
	// reduced keys here (rather than only consulting constants in
	// keyCovered) lets the property survive projections that drop the
	// constant column.
	if o.caps.Has(CapUAJConstFilter) && len(p.consts) > 0 {
		cc := p.constCols()
		for _, k := range append([]types.ColSet(nil), p.keys...) {
			if k.Intersects(cc) {
				p.addKey(k.Difference(cc))
			}
		}
	}
	return p
}

// clipKeys returns keys with its capacity cut to its length, so an append
// to the result never writes into the shared backing array.
func clipKeys(keys []types.ColSet) []types.ColSet {
	return keys[:len(keys):len(keys)]
}

// joinSideUnique reports whether the given side of the join produces at
// most one match per row of the other side: some key of that side is
// covered by equality-bound columns (bound to the other side or to
// constants) plus constant columns.
func (o *Optimizer) joinSideUnique(j *plan.Join, sideProps *props, leftSide bool) bool {
	bound := o.boundJoinCols(j, leftSide)
	return keyCovered(o.caps, sideProps, bound)
}

// boundJoinCols returns the columns of one join side that are bound by
// equality conjuncts to expressions of the other side or to constants.
func (o *Optimizer) boundJoinCols(j *plan.Join, leftSide bool) types.ColSet {
	var side, other types.ColSet
	if leftSide {
		side, other = o.cols(j.Left), o.cols(j.Right)
	} else {
		side, other = o.cols(j.Right), o.cols(j.Left)
	}
	var bound types.ColSet
	for _, conj := range plan.Conjuncts(j.Cond) {
		eq, ok := conj.(*plan.Bin)
		if !ok || eq.Op != "=" {
			continue
		}
		check := func(a, b plan.Expr) {
			cr, ok := a.(*plan.ColRef)
			if !ok || !side.Contains(cr.ID) {
				return
			}
			bu := plan.ColsUsed(b)
			if bu.SubsetOf(other) || bu.Empty() {
				bound.Add(cr.ID)
			}
		}
		check(eq.L, eq.R)
		check(eq.R, eq.L)
	}
	return bound
}

// keyCovered reports whether some candidate key is contained in the
// bound column set (optionally extended by constant columns, gated by
// CapUAJConstFilter).
func keyCovered(caps Capability, p *props, bound types.ColSet) bool {
	effective := bound
	if caps.Has(CapUAJConstFilter) {
		effective = bound.Union(p.constCols())
	}
	for _, k := range p.keys {
		if k.SubsetOf(effective) {
			return true
		}
	}
	return false
}

// uniqueOnCols reports whether node n is unique on the given columns.
func (o *Optimizer) uniqueOnCols(n plan.Node, cols types.ColSet) bool {
	return keyCovered(o.caps, o.deriveProps(n), cols)
}

// source identifies the base-table origin of a pass-through column.
type source struct {
	table    string
	instance int
	ord      int
}

// sourceOf traces column id of n down through pass-through operators to
// the base-table column it carries; false when the column is computed,
// comes out of a Union All (ambiguous) or is an aggregate (GroupBy passes
// group columns only). It follows one path and builds nothing: at a join
// the memoized column sets pick the side, the right one first.
func (o *Optimizer) sourceOf(n plan.Node, id types.ColumnID) (source, bool) {
	for {
		switch cur := n.(type) {
		case *plan.Scan:
			for i, c := range cur.Cols {
				if c == id {
					return source{table: cur.Info.Name, instance: cur.Instance, ord: cur.Ords[i]}, true
				}
			}
			return source{}, false
		case *plan.Filter:
			n = cur.Input
		case *plan.Sort:
			n = cur.Input
		case *plan.Limit:
			n = cur.Input
		case *plan.Distinct:
			n = cur.Input
		case *plan.Project:
			// The last pass-through of id that resolves wins.
			for i := len(cur.Cols) - 1; i >= 0; i-- {
				if c := cur.Cols[i]; c.ID == id {
					if cr, ok := c.Expr.(*plan.ColRef); ok {
						if s, ok := o.sourceOf(cur.Input, cr.ID); ok {
							return s, true
						}
					}
				}
			}
			return source{}, false
		case *plan.Join:
			if o.cols(cur.Right).Contains(id) {
				if s, ok := o.sourceOf(cur.Right, id); ok {
					return s, true
				}
			}
			if !o.cols(cur.Left).Contains(id) {
				return source{}, false
			}
			n = cur.Left
		case *plan.GroupBy:
			if !slices.Contains(cur.GroupCols, id) {
				return source{}, false
			}
			n = cur.Input
		default:
			return source{}, false
		}
	}
}

// nullableInstances returns the scan instances that may be null-extended
// within n (they appear on the right side of a left outer join).
func nullableInstances(n plan.Node) map[int]bool {
	out := map[int]bool{}
	var mark func(n plan.Node)
	mark = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out[s.Instance] = true
		}
		for _, c := range n.Inputs() {
			mark(c)
		}
	}
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Kind == plan.LeftOuterJoin {
			mark(j.Right)
			walk(j.Left)
			return
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// instancesIn returns the scan instances appearing in the subtree.
func instancesIn(n plan.Node) map[int]*plan.Scan {
	out := map[int]*plan.Scan{}
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out[s.Instance] = s
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(n)
	return out
}
