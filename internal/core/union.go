package core

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// deriveUnionProps computes key properties of a Union All per the
// paper's Figure 12:
//
//	(a) children are provably-disjoint subsets of one relation and each
//	    preserves a common key → that key survives the union;
//	(b) each child carries a distinct constant (branch ID) and a
//	    per-child key → ⟨branch ID, key⟩ is a union key.
func (o *Optimizer) deriveUnionProps(n *plan.UnionAll, p *props) {
	nPos := len(n.Cols)
	children := n.Children
	childProps := make([]*props, len(children))
	childCols := make([][]types.ColumnID, len(children))
	for i, c := range children {
		childProps[i] = o.deriveProps(c)
		childCols[i] = c.Columns()
	}

	// Per-position constants.
	constAt := make([]map[int]*plan.Const, len(children))
	for i := range children {
		constAt[i] = map[int]*plan.Const{}
		for pos := 0; pos < nPos; pos++ {
			if v, ok := childProps[i].consts[childCols[i][pos]]; ok {
				constAt[i][pos] = v
			}
		}
	}

	// Union-level constants and non-nulls (shared across children).
	for pos := 0; pos < nPos; pos++ {
		allConst := true
		var v *plan.Const
		for i := range children {
			cv, ok := constAt[i][pos]
			if !ok {
				allConst = false
				break
			}
			if i == 0 {
				v = cv
			} else if !o.sameConst(v, cv) {
				allConst = false
				break
			}
		}
		if allConst && len(children) > 0 {
			p.setConst(n.Cols[pos], v)
		}
		allNN := true
		for i := range children {
			if !childProps[i].notNull.Contains(childCols[i][pos]) {
				allNN = false
				break
			}
		}
		if allNN && len(children) > 0 {
			p.notNull.Add(n.Cols[pos])
		}
	}
	if len(children) == 0 {
		return
	}

	// Child keys expressed as position sets.
	keyPositions := func(i int, k types.ColSet) ([]int, bool) {
		posOf := map[types.ColumnID]int{}
		for pos, id := range childCols[i] {
			if _, dup := posOf[id]; !dup {
				posOf[id] = pos
			}
		}
		var out []int
		ok := true
		k.ForEach(func(id types.ColumnID) {
			pos, has := posOf[id]
			if !has {
				ok = false
				return
			}
			out = append(out, pos)
		})
		return out, ok
	}
	childKeyPos := make([][][]int, len(children))
	for i := range children {
		for _, k := range childProps[i].keys {
			if pos, ok := keyPositions(i, k); ok {
				childKeyPos[i] = append(childKeyPos[i], pos)
			}
		}
	}
	if len(childKeyPos[0]) == 0 {
		return
	}

	// Branch-ID rule, Figure 12(b).
	if o.caps.Has(CapUAJUnionBranch) {
		var bidPos []int
		for pos := 0; pos < nPos; pos++ {
			all := true
			for i := range children {
				if _, ok := constAt[i][pos]; !ok {
					all = false
					break
				}
			}
			if all {
				bidPos = append(bidPos, pos)
			}
		}
		if len(bidPos) > 0 && o.branchTuplesDistinct(children, constAt, bidPos) {
			for _, cand := range childKeyPos[0] {
				full := posSet(cand)
				for _, bp := range bidPos {
					full[bp] = true
				}
				if allChildrenHaveKeyWithin(childKeyPos, full) {
					var key types.ColSet
					for pos := range full {
						key.Add(n.Cols[pos])
					}
					p.addKey(key)
				}
			}
		}
	}

	// Disjoint-subset rule, Figure 12(a). Soundness requires all of:
	//   - the candidate positions map to the same base-table columns in
	//     every child (pass-through provenance),
	//   - those base columns cover a key of the base table itself (so a
	//     key value identifies one row of the shared relation — a key of
	//     each filtered child alone is NOT enough: two children filtered
	//     on different values of another key column may both contain the
	//     same candidate value),
	//   - each child preserves that key (no duplication inside a child),
	//   - the children's filters are pairwise disjoint.
	if o.caps.Has(CapUAJUnionDisjoint) {
		for _, cand := range childKeyPos[0] {
			full := posSet(cand)
			if !allChildrenHaveKeyWithin(childKeyPos, full) {
				continue
			}
			if !o.sameTableAt(children, childCols, cand) {
				continue
			}
			if !o.coversBaseTableKey(children[0], childCols[0], cand) {
				continue
			}
			if o.childrenPairwiseDisjoint(children) {
				var key types.ColSet
				for pos := range full {
					key.Add(n.Cols[pos])
				}
				p.addKey(key)
			}
		}
	}
}

func posSet(ps []int) map[int]bool {
	m := make(map[int]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func allChildrenHaveKeyWithin(childKeyPos [][][]int, allowed map[int]bool) bool {
	for _, keys := range childKeyPos {
		found := false
		for _, k := range keys {
			ok := true
			for _, pos := range k {
				if !allowed[pos] {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// branchTuplesDistinct reports whether the children's branch-ID tuples
// are pairwise distinct; the answer rests on every value compared.
func (o *Optimizer) branchTuplesDistinct(children []plan.Node, constAt []map[int]*plan.Const, bidPos []int) bool {
	seen := map[string]bool{}
	var keyBuf []byte
	for i := range children {
		keyBuf = keyBuf[:0]
		for _, pos := range bidPos {
			o.pin(constAt[i][pos])
			keyBuf = constAt[i][pos].Val.AppendKey(keyBuf)
		}
		if seen[string(keyBuf)] {
			return false
		}
		seen[string(keyBuf)] = true
	}
	return true
}

// sameTableAt reports whether, at the given positions, every child's
// column is a pass-through of the same base-table column (same table
// name, same ordinal) — the Figure 12(a) shape where each child scans
// the same relation.
func (o *Optimizer) sameTableAt(children []plan.Node, childCols [][]types.ColumnID, positions []int) bool {
	var ref map[int]source // position -> source of child 0 (ord/table)
	for i, c := range children {
		cur := map[int]source{}
		for _, pos := range positions {
			s, ok := o.sourceOf(c, childCols[i][pos])
			if !ok {
				return false
			}
			cur[pos] = s
		}
		if i == 0 {
			ref = cur
			continue
		}
		for _, pos := range positions {
			if cur[pos].table != ref[pos].table || cur[pos].ord != ref[pos].ord {
				return false
			}
		}
	}
	return true
}

// coversBaseTableKey reports whether the base-table ordinals behind the
// given child positions cover a declared key of that base table.
func (o *Optimizer) coversBaseTableKey(child plan.Node, childCols []types.ColumnID, positions []int) bool {
	ords := map[int]bool{}
	instance := -1
	for _, pos := range positions {
		s, ok := o.sourceOf(child, childCols[pos])
		if !ok {
			return false
		}
		if instance == -1 {
			instance = s.instance
		} else if s.instance != instance {
			return false
		}
		ords[s.ord] = true
	}
	scan, ok := instancesIn(child)[instance]
	if !ok {
		return false
	}
	for _, k := range scan.Info.Keys {
		covered := true
		for _, ord := range k.Columns {
			if !ords[ord] {
				covered = false
				break
			}
		}
		if covered {
			return true
		}
	}
	return false
}

// colConstraint summarizes the filter constraints a child places on one
// base-table column (identified by table name + ordinal). It keeps the
// constants themselves: collecting a constraint decides nothing, and
// pairDisjoint pins each constant it compares.
type colConstraint struct {
	eq     *plan.Const
	in     []*plan.Const
	ne     []*plan.Const
	lo, hi *plan.Const
	loOpen bool
	hiOpen bool
}

// childConstraints extracts per-base-column constraints from the filter
// conjuncts of a subtree, keyed by "table\x00ord".
func childConstraints(n plan.Node) map[string]*colConstraint {
	// Sources of every scan column in the subtree.
	src := map[types.ColumnID]source{}
	var collectScans func(n plan.Node)
	collectScans = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			for i, id := range s.Cols {
				src[id] = source{table: s.Info.Name, instance: s.Instance, ord: s.Ords[i]}
			}
		}
		for _, c := range n.Inputs() {
			collectScans(c)
		}
	}
	collectScans(n)

	out := map[string]*colConstraint{}
	get := func(s source) *colConstraint {
		key := s.table + "\x00" + itoa(s.ord)
		c, ok := out[key]
		if !ok {
			c = &colConstraint{}
			out[key] = c
		}
		return c
	}
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			for _, conj := range plan.Conjuncts(f.Cond) {
				applyConstraint(conj, src, get)
			}
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(n)
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func applyConstraint(conj plan.Expr, src map[types.ColumnID]source, get func(source) *colConstraint) {
	switch e := conj.(type) {
	case *plan.Bin:
		cr, crOK := e.L.(*plan.ColRef)
		k, kOK := e.R.(*plan.Const)
		op := e.Op
		if !crOK || !kOK {
			// try reversed operand order
			cr, crOK = e.R.(*plan.ColRef)
			k, kOK = e.L.(*plan.Const)
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		if !crOK || !kOK || k.Val.IsNull() {
			return
		}
		s, ok := src[cr.ID]
		if !ok {
			return
		}
		c := get(s)
		switch op {
		case "=":
			c.eq = k
		case "<>":
			c.ne = append(c.ne, k)
		case "<":
			c.hi, c.hiOpen = k, true
		case "<=":
			c.hi, c.hiOpen = k, false
		case ">":
			c.lo, c.loOpen = k, true
		case ">=":
			c.lo, c.loOpen = k, false
		}
	case *plan.InListExpr:
		if e.Not {
			return
		}
		cr, ok := e.E.(*plan.ColRef)
		if !ok {
			return
		}
		s, sok := src[cr.ID]
		if !sok {
			return
		}
		var vals []*plan.Const
		for _, x := range e.List {
			k, ok := x.(*plan.Const)
			if !ok || k.Val.IsNull() {
				return
			}
			vals = append(vals, k)
		}
		get(s).in = vals
	}
}

// childrenPairwiseDisjoint proves that no row can satisfy the filter
// sets of two different children: for every pair there is a base column
// with contradictory constraints.
func (o *Optimizer) childrenPairwiseDisjoint(children []plan.Node) bool {
	cons := make([]map[string]*colConstraint, len(children))
	for i, c := range children {
		cons[i] = childConstraints(c)
	}
	for i := 0; i < len(children); i++ {
		for j := i + 1; j < len(children); j++ {
			if !o.constraintsDisjoint(cons[i], cons[j]) {
				return false
			}
		}
	}
	return true
}

func (o *Optimizer) constraintsDisjoint(a, b map[string]*colConstraint) bool {
	for key, ca := range a {
		cb, ok := b[key]
		if !ok {
			continue
		}
		if o.pairDisjoint(ca, cb) || o.pairDisjoint(cb, ca) {
			return true
		}
	}
	return false
}

// pairDisjoint reports whether the two single-column constraints cannot
// both hold. Every comparison pins both constants: the constraints that
// prove the pair disjoint, and also those that fail to, since other
// values might prove it and give the union a key.
func (o *Optimizer) pairDisjoint(a, b *colConstraint) bool {
	lt := func(x, y *plan.Const) bool {
		o.pin(x)
		o.pin(y)
		c, err := types.Compare(x.Val, y.Val)
		return err == nil && c < 0
	}
	eq := func(x, y *plan.Const) bool { return o.sameConst(x, y) }
	if a.eq != nil {
		if b.eq != nil && !eq(a.eq, b.eq) {
			return true
		}
		if b.in != nil {
			found := false
			for _, v := range b.in {
				if eq(a.eq, v) {
					found = true
					break
				}
			}
			if !found {
				return true
			}
		}
		for _, v := range b.ne {
			if eq(a.eq, v) {
				return true
			}
		}
		if b.lo != nil && (lt(a.eq, b.lo) || (b.loOpen && eq(a.eq, b.lo))) {
			return true
		}
		if b.hi != nil && (lt(b.hi, a.eq) || (b.hiOpen && eq(a.eq, b.hi))) {
			return true
		}
	}
	if a.in != nil && b.in != nil {
		for _, va := range a.in {
			for _, vb := range b.in {
				if eq(va, vb) {
					return false
				}
			}
		}
		return true
	}
	if a.hi != nil && b.lo != nil {
		if lt(a.hi, b.lo) {
			return true
		}
		if eq(a.hi, b.lo) && (a.hiOpen || b.loOpen) {
			return true
		}
	}
	return false
}
