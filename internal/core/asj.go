package core

import (
	"slices"
	"sort"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// rewriteASJ eliminates augmentation self-joins (§5, Figure 10): a join
// whose augmenter is (a filtered projection of) a table that already
// appears in the anchor, joined on the table's full primary key. The
// references to augmenter columns are re-wired to the anchor's own
// instance of the table. The Union All variants of Figure 13 — a union
// in the anchor with a self-join table in every child (13a), and unions
// on both sides matched by branch IDs under a CASE JOIN (13b) — are
// handled as well.
func (o *Optimizer) rewriteASJ(n plan.Node) plan.Node {
	defer o.settle(n, o.rewrites)
	for i, c := range n.Inputs() {
		n.SetInput(i, o.rewriteASJ(c))
	}
	j, ok := n.(*plan.Join)
	if !ok || !o.caps.Has(CapASJ) {
		return n
	}
	if j.Kind != plan.LeftOuterJoin && j.Kind != plan.InnerJoin {
		return n
	}
	if out := o.tryASJ(j); out != nil {
		return out
	}
	return n
}

// augInfo describes one augmenter branch: a (possibly filtered,
// projected) scan of a base table.
type augInfo struct {
	scan *plan.Scan
	// preds holds the branch's filter conjuncts in canonical form.
	preds []canonPred
	// colOrd maps branch output columns to table ordinals.
	colOrd map[types.ColumnID]int
	// constOut maps branch output columns that are constants (branch
	// IDs) to their constants.
	constOut map[types.ColumnID]*plan.Const
	// depth counts interposed operators (for the pristine check).
	depth int
}

// analyzeAugmenter decomposes the augmenter side. It returns a single
// branch for a plain augmenter, or one branch per Union All child.
func analyzeAugmenter(n plan.Node) (branches []*augInfo, isUnion bool, unionNode *plan.UnionAll, ok bool) {
	if u, isU := n.(*plan.UnionAll); isU {
		for _, c := range u.Children {
			b, bok := analyzeAugBranch(c)
			if !bok {
				return nil, false, nil, false
			}
			branches = append(branches, b)
		}
		return branches, true, u, len(branches) > 0
	}
	b, bok := analyzeAugBranch(n)
	if !bok {
		return nil, false, nil, false
	}
	return []*augInfo{b}, false, nil, true
}

// analyzeAugBranch walks Project/Filter chains down to a Scan.
func analyzeAugBranch(n plan.Node) (*augInfo, bool) {
	switch n := n.(type) {
	case *plan.Scan:
		info := &augInfo{scan: n, colOrd: map[types.ColumnID]int{}, constOut: map[types.ColumnID]*plan.Const{}}
		for i, id := range n.Cols {
			info.colOrd[id] = n.Ords[i]
		}
		return info, true
	case *plan.Filter:
		info, ok := analyzeAugBranch(n.Input)
		if !ok {
			return nil, false
		}
		info.depth++
		for _, conj := range plan.Conjuncts(n.Cond) {
			p, ok := canonicalPred(conj, info.colOrd)
			if !ok {
				return nil, false
			}
			info.preds = append(info.preds, p)
		}
		return info, true
	case *plan.Project:
		inner, ok := analyzeAugBranch(n.Input)
		if !ok {
			return nil, false
		}
		out := &augInfo{scan: inner.scan, preds: inner.preds, depth: inner.depth + 1,
			colOrd: map[types.ColumnID]int{}, constOut: map[types.ColumnID]*plan.Const{}}
		for _, c := range n.Cols {
			switch e := c.Expr.(type) {
			case *plan.ColRef:
				if ord, has := inner.colOrd[e.ID]; has {
					out.colOrd[c.ID] = ord
				} else if v, has := inner.constOut[e.ID]; has {
					out.constOut[c.ID] = v
				} else {
					return nil, false
				}
			case *plan.Const:
				if e.Val.IsNull() {
					return nil, false
				}
				out.constOut[c.ID] = e
			default:
				return nil, false
			}
		}
		return out, true
	}
	return nil, false
}

// canonPred is a predicate over a single table instance in canonical
// form: every column reference is replaced by its table ordinal, so
// predicates on different instances of the same table compare equal.
type canonPred struct {
	// expr is the canonical predicate, its lifted literals unslotted, and
	// key its ExprKey: literals compare by value, so a statement's literal
	// matches a view's equal constant.
	expr plan.Expr
	key  string
	// lits holds the lifted literals the predicate reads.
	lits []*plan.Const
}

// canonicalPred canonicalizes a predicate over a single table instance.
func canonicalPred(e plan.Expr, colOrd map[types.ColumnID]int) (canonPred, bool) {
	var p canonPred
	ok := true
	p.expr = plan.RewriteExpr(e, func(x plan.Expr) plan.Expr {
		switch x := x.(type) {
		case *plan.ColRef:
			ord, has := colOrd[x.ID]
			if !has {
				ok = false
				return x
			}
			return &plan.ColRef{ID: types.ColumnID(ord), Typ: x.Typ}
		case *plan.Const:
			if x.Slot > 0 {
				p.lits = append(p.lits, x)
				return &plan.Const{Val: x.Val}
			}
		}
		return x
	})
	if !ok {
		return canonPred{}, false
	}
	p.key = plan.ExprKey(p.expr)
	return p, true
}

// shape is the predicate's key with every literal alike: predicates of
// one shape might match under other literal values.
func (p canonPred) shape() string {
	return plan.ExprKey(plan.RewriteExpr(p.expr, func(x plan.Expr) plan.Expr {
		if _, ok := x.(*plan.Const); ok {
			return anyLiteral
		}
		return x
	}))
}

// anyLiteral stands for every literal in a predicate's shape.
var anyLiteral = &plan.Const{Slot: 1}

// covered reports whether the anchor applies every augmenter predicate,
// the subsumption test of Figure 10c. The answer pins the lifted literals
// it rests on: a match pins both predicates' literals, and a miss pins
// those of the missing predicate and of every anchor predicate of its
// shape, since other values might have matched.
func (o *Optimizer) covered(aug, anchor []canonPred) bool {
	for _, p := range aug {
		if i := slices.IndexFunc(anchor, func(q canonPred) bool { return q.key == p.key }); i >= 0 {
			o.pinLits(p.lits)
			o.pinLits(anchor[i].lits)
			continue
		}
		var shape string
		for _, q := range anchor {
			if len(p.lits) == 0 && len(q.lits) == 0 {
				continue
			}
			if shape == "" {
				shape = p.shape()
			}
			if q.shape() == shape {
				o.pinLits(p.lits)
				o.pinLits(q.lits)
			}
		}
		return false
	}
	return true
}

// primaryKeyOrds returns the primary-key ordinals of a table, or nil.
func primaryKeyOrds(info *plan.TableInfo) []int {
	for _, k := range info.Keys {
		if k.Primary {
			return k.Columns
		}
	}
	return nil
}

// joinEqualities extracts the equality structure of the join condition:
// anchor column per augmenter ordinal (keyByOrd), anchor columns matched
// against branch constants (selectors), and augmenter-side constant
// predicates. Any other conjunct shape disqualifies the ASJ.
type asjCond struct {
	keyByOrd  map[int]types.ColumnID            // augmenter ordinal -> anchor column
	selectors map[types.ColumnID]types.ColumnID // augmenter const col -> anchor column
	extraPred []canonPred                       // canonical augmenter-side const equalities
	keyPairs  []keyPair                         // raw (augmenter col, anchor col) equalities
}

// keyPair is one anchor = augmenter equality of the join condition.
type keyPair struct {
	augCol    types.ColumnID
	anchorCol types.ColumnID
}

func (o *Optimizer) analyzeASJCond(j *plan.Join, branch *augInfo) (*asjCond, bool) {
	leftCols := o.cols(j.Left)
	out := &asjCond{keyByOrd: map[int]types.ColumnID{}, selectors: map[types.ColumnID]types.ColumnID{}}
	for _, conj := range plan.Conjuncts(j.Cond) {
		eq, ok := conj.(*plan.Bin)
		if !ok || eq.Op != "=" {
			return nil, false
		}
		l, lok := eq.L.(*plan.ColRef)
		r, rok := eq.R.(*plan.ColRef)
		switch {
		case lok && rok:
			if leftCols.Contains(r.ID) {
				l, r = r, l
			}
			if !leftCols.Contains(l.ID) {
				return nil, false
			}
			if ord, has := branch.colOrd[r.ID]; has {
				out.keyByOrd[ord] = l.ID
				out.keyPairs = append(out.keyPairs, keyPair{augCol: r.ID, anchorCol: l.ID})
			} else if _, has := branch.constOut[r.ID]; has {
				out.selectors[r.ID] = l.ID
			} else {
				return nil, false
			}
		case lok || rok:
			// column = constant on the augmenter side acts as a filter.
			cr := l
			var k *plan.Const
			if lok {
				k, _ = eq.R.(*plan.Const)
			} else {
				cr = r
				k, _ = eq.L.(*plan.Const)
			}
			if k == nil || cr == nil || leftCols.Contains(cr.ID) {
				return nil, false
			}
			ord, has := branch.colOrd[cr.ID]
			if !has {
				return nil, false
			}
			p, ok := canonicalPred(&plan.Bin{Op: "=", L: &plan.ColRef{ID: types.ColumnID(ord), Typ: cr.Typ}, R: k, Typ: types.TBool}, map[types.ColumnID]int{types.ColumnID(ord): ord})
			if !ok {
				return nil, false
			}
			out.extraPred = append(out.extraPred, p)
		default:
			return nil, false
		}
	}
	return out, true
}

// anchorPredsFor collects the canonical filter conjuncts the anchor
// applies to a given scan instance (any filter in the subtree whose
// columns all belong to that instance).
func anchorPredsFor(n plan.Node, instance int) []canonPred {
	// Column -> ordinal map for the instance's scan columns.
	colOrd := map[types.ColumnID]int{}
	for _, s := range instancesIn(n) {
		if s.Instance == instance {
			for i, id := range s.Cols {
				colOrd[id] = s.Ords[i]
			}
		}
	}
	// Follow pass-through aliases: a Filter above a Project may
	// reference aliased columns.
	var collectAliases func(n plan.Node)
	collectAliases = func(n plan.Node) {
		for _, c := range n.Inputs() {
			collectAliases(c)
		}
		if p, ok := n.(*plan.Project); ok {
			for _, c := range p.Cols {
				if cr, isCR := c.Expr.(*plan.ColRef); isCR {
					if ord, has := colOrd[cr.ID]; has {
						colOrd[c.ID] = ord
					}
				}
			}
		}
	}
	collectAliases(n)
	var preds []canonPred
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			for _, conj := range plan.Conjuncts(f.Cond) {
				if p, ok := canonicalPred(conj, colOrd); ok {
					preds = append(preds, p)
				}
			}
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(n)
	return preds
}

// tryASJ attempts the rewrite; nil means not applicable.
func (o *Optimizer) tryASJ(j *plan.Join) plan.Node {
	branches, isUnionAug, _, ok := analyzeAugmenter(j.Right)
	if !ok {
		return nil
	}
	if isUnionAug {
		return o.tryUnionASJ(j, branches)
	}
	branch := branches[0]
	pk := primaryKeyOrds(branch.scan.Info)
	if pk == nil {
		return nil
	}
	cond, ok := o.analyzeASJCond(j, branch)
	if !ok || len(cond.selectors) != 0 {
		return nil
	}
	// The equalities must cover exactly the primary key.
	if !ordsCoverExactly(cond.keyByOrd, pk) {
		return nil
	}
	// Locate the anchor's instance of the table via provenance of the
	// anchor-side key columns.
	instance := -1
	for _, ord := range pk {
		s, has := o.sourceOf(j.Left, cond.keyByOrd[ord])
		if !has || !equalsFold(s.table, branch.scan.Info.Name) || s.ord != ord {
			// Figure 13a: the anchor may be a Union All with a self-join
			// instance in every child.
			if o.caps.Has(CapASJUnionAnchor) {
				return o.tryUnionAnchorASJ(j, branch, cond)
			}
			return nil
		}
		if instance == -1 {
			instance = s.instance
		} else if s.instance != instance {
			return nil
		}
	}
	// Capability gating per Figure 10.
	augPreds := append(append([]canonPred(nil), branch.preds...), cond.extraPred...)
	if _, anchorIsScan := j.Left.(*plan.Scan); !anchorIsScan && !o.caps.Has(CapASJSubquery) {
		return nil
	}
	if len(augPreds) > 0 && !o.caps.Has(CapASJFilter) {
		return nil
	}
	// Predicate subsumption: every augmenter predicate must be implied
	// by the anchor's predicates on the same instance, else some anchor
	// rows would be NULL-augmented by the join but non-NULL after
	// re-wiring (Figure 10c).
	if len(augPreds) > 0 && !o.covered(augPreds, anchorPredsFor(j.Left, instance)) {
		return nil
	}
	// Inner-join ASJ additionally requires that the anchor instance is
	// never NULL-extended (otherwise the join would drop rows).
	if j.Kind == plan.InnerJoin && nullableInstances(j.Left)[instance] {
		return nil
	}
	// Re-wire: widen the anchor to expose the augmenter ordinals, then
	// project the join's output columns from the anchor alone.
	needOrds, ordOfRight, ok := augOutputOrds(j.Right, branch)
	if !ok {
		return nil
	}
	slotOfOrd := map[int]int{}
	for i, ord := range needOrds {
		slotOfOrd[ord] = i
	}
	target := &widenTarget{instance: instance, ords: needOrds, nSlots: len(needOrds)}
	widened, m, ok := o.widen(j.Left, target)
	if !ok {
		return nil
	}
	o.rewrote()
	o.logEvent("asj-elim", j, plan.CollectStats(j.Right).Joins+1,
		"augmentation self-join folded into anchor")
	return o.buildASJProject(j, widened, func(rightCol types.ColumnID) plan.Expr {
		id := m[slotOfOrd[ordOfRight[rightCol]]]
		return &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}
	})
}

// ordsCoverExactly reports whether the map keys equal the ordinal list.
func ordsCoverExactly(m map[int]types.ColumnID, ords []int) bool {
	if len(m) != len(ords) {
		return false
	}
	for _, ord := range ords {
		if _, ok := m[ord]; !ok {
			return false
		}
	}
	return true
}

// augOutputOrds maps each augmenter output column to its table ordinal
// and returns the needed ordinals in sorted order.
func augOutputOrds(right plan.Node, branch *augInfo) ([]int, map[types.ColumnID]int, bool) {
	ordOf := map[types.ColumnID]int{}
	seen := map[int]bool{}
	for _, id := range right.Columns() {
		ord, has := branch.colOrd[id]
		if !has {
			return nil, nil, false
		}
		ordOf[id] = ord
		seen[ord] = true
	}
	var ords []int
	for ord := range seen {
		ords = append(ords, ord)
	}
	sort.Ints(ords)
	return ords, ordOf, true
}

// buildASJProject replaces the join with a projection over the widened
// anchor: left columns pass through, right columns are produced by
// rightExpr.
func (o *Optimizer) buildASJProject(j *plan.Join, anchor plan.Node, rightExpr func(types.ColumnID) plan.Expr) plan.Node {
	var cols []plan.ProjCol
	for _, id := range j.Left.Columns() {
		cols = append(cols, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}})
	}
	for _, id := range j.Right.Columns() {
		cols = append(cols, plan.ProjCol{ID: id, Expr: rightExpr(id)})
	}
	return &plan.Project{Input: anchor, Cols: cols}
}
