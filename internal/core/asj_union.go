package core

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// pristineAugDepth is the deepest augmenter branch shape (a single
// projection over the scan) that the auto-recognizer accepts without an
// explicit CASE JOIN declaration. Anything deeper — the various forms a
// Union All subgraph can take after query transformations (§6.3) — is
// only matched when the developer declared the intent with CASE JOIN.
const pristineAugDepth = 1

// pristineSpineDepth bounds the operators between the join's anchor
// input and the anchor Union All for the auto-recognizer.
const pristineSpineDepth = 1

// tryUnionASJ handles augmenters that are Union Alls (Figure 13b): the
// join is an ASJ against a union of tables (typically the Active/Draft
// pattern), matched per branch against an anchor-side Union All. Branch
// correspondence is established by selector equalities on per-branch
// constant columns (branch IDs) or, absent selectors, by table identity.
func (o *Optimizer) tryUnionASJ(j *plan.Join, branches []*augInfo) plan.Node {
	if j.CaseJoin {
		if !o.caps.Has(CapCaseJoin) {
			return nil
		}
	} else if !o.caps.Has(CapASJUnionAuto) {
		return nil
	}
	u, ok := j.Right.(*plan.UnionAll)
	if !ok {
		return nil
	}
	// Lift branch column maps to union output IDs.
	lifted := make([]*augInfo, len(branches))
	for i, br := range branches {
		childCols := u.Children[i].Columns()
		la := &augInfo{scan: br.scan, preds: br.preds, depth: br.depth,
			colOrd: map[types.ColumnID]int{}, constOut: map[types.ColumnID]*plan.Const{}}
		for p, uid := range u.Cols {
			cid := childCols[p]
			if ord, has := br.colOrd[cid]; has {
				la.colOrd[uid] = ord
			} else if v, has := br.constOut[cid]; has {
				la.constOut[uid] = v
			} else {
				return nil
			}
		}
		lifted[i] = la
	}
	// Pristine gate for the auto-recognizer.
	if !j.CaseJoin {
		for _, br := range branches {
			if br.depth > pristineAugDepth || len(br.preds) > 0 {
				return nil
			}
		}
	}
	// Per-branch condition analysis: the same conjuncts must classify
	// consistently, covering each branch table's primary key.
	conds := make([]*asjCond, len(lifted))
	for i, la := range lifted {
		c, ok := o.analyzeASJCond(j, la)
		if !ok {
			return nil
		}
		pk := primaryKeyOrds(la.scan.Info)
		if pk == nil || !ordsCoverExactly(c.keyByOrd, pk) {
			return nil
		}
		conds[i] = c
	}
	sel := conds[0].selectors
	for i := 1; i < len(conds); i++ {
		if !sameSelectorMap(conds[i].selectors, sel) {
			return nil
		}
	}
	keyPairs := conds[0].keyPairs

	// Collect the anchor-side columns the condition references and
	// resolve them to an anchor Union All.
	var anchorCols []types.ColumnID
	for _, kp := range keyPairs {
		anchorCols = append(anchorCols, kp.anchorCol)
	}
	for _, ac := range sel {
		anchorCols = append(anchorCols, ac)
	}
	au, posOf, spineDepth, ok := o.resolveToUnion(j.Left, anchorCols)
	if !ok {
		return nil
	}
	if !j.CaseJoin && spineDepth > pristineSpineDepth {
		return nil
	}

	// Match each anchor child to an augmenter branch and an instance.
	childInsts := make([]int, len(au.Children))
	childBranch := make([]int, len(au.Children))
	for k, child := range au.Children {
		childCols := child.Columns()
		branchIdx := -1
		if len(sel) > 0 {
			cprops := o.deriveProps(child)
			for augCol, anchorCol := range sel {
				cid := childCols[posOf[anchorCol]]
				v, has := cprops.consts[cid]
				if !has {
					return nil
				}
				match := -1
				for bi, la := range lifted {
					if bv, has := la.constOut[augCol]; has && o.sameConst(bv, v) {
						if match >= 0 {
							return nil
						}
						match = bi
					}
				}
				if match < 0 {
					return nil
				}
				if branchIdx == -1 {
					branchIdx = match
				} else if branchIdx != match {
					return nil
				}
			}
		} else {
			// Match by table identity via the first key column.
			s, has := o.sourceOf(child, childCols[posOf[keyPairs[0].anchorCol]])
			if !has {
				return nil
			}
			match := -1
			for bi, la := range lifted {
				if equalsFold(la.scan.Info.Name, s.table) {
					if match >= 0 {
						return nil
					}
					match = bi
				}
			}
			if match < 0 {
				return nil
			}
			branchIdx = match
		}
		la := lifted[branchIdx]
		inst := -1
		for _, kp := range keyPairs {
			ord, has := la.colOrd[kp.augCol]
			if !has {
				return nil
			}
			s, has := o.sourceOf(child, childCols[posOf[kp.anchorCol]])
			if !has || !equalsFold(s.table, la.scan.Info.Name) || s.ord != ord {
				return nil
			}
			if inst == -1 {
				inst = s.instance
			} else if inst != s.instance {
				return nil
			}
		}
		augPreds := append(append([]canonPred(nil), la.preds...), conds[branchIdx].extraPred...)
		if len(augPreds) > 0 && !o.covered(augPreds, anchorPredsFor(child, inst)) {
			return nil
		}
		if j.Kind == plan.InnerJoin && nullableInstances(child)[inst] {
			return nil
		}
		childInsts[k] = inst
		childBranch[k] = branchIdx
	}

	// Build the widening slots: one per augmenter output column that is
	// not re-wireable to an existing anchor column.
	rightCols := j.Right.Columns()
	slotOf := map[types.ColumnID]int{}
	selectorFor := map[types.ColumnID]types.ColumnID{}
	var childSlots [][]slotSrc
	nSlots := 0
	for _, rc := range rightCols {
		if anchorCol, isSel := sel[rc]; isSel {
			// Selector columns equal the matching anchor column by
			// construction of the join predicate.
			selectorFor[rc] = anchorCol
			continue
		}
		slot := nSlots
		nSlots++
		slotOf[rc] = slot
		for k := range au.Children {
			la := lifted[childBranch[k]]
			for len(childSlots) <= k {
				childSlots = append(childSlots, nil)
			}
			if ord, has := la.colOrd[rc]; has {
				childSlots[k] = append(childSlots[k], slotSrc{ord: ord})
			} else if v, has := la.constOut[rc]; has {
				childSlots[k] = append(childSlots[k], slotSrc{constV: v})
			} else {
				return nil
			}
		}
	}
	if len(au.Children) > 0 && len(childSlots) < len(au.Children) {
		childSlots = make([][]slotSrc, len(au.Children))
	}

	target := &widenTarget{union: au, childInsts: childInsts, childSlots: childSlots, nSlots: nSlots}
	widened, m, ok := o.widen(j.Left, target)
	if !ok {
		return nil
	}
	o.rewrote()
	if j.CaseJoin {
		o.logEvent("asj-case-join-elim", j, plan.CollectStats(j.Right).Joins+1,
			"ASJ over UNION ALL augmenter (declared CASE JOIN)")
	} else {
		o.logEvent("asj-union-auto-elim", j, plan.CollectStats(j.Right).Joins+1,
			"ASJ over UNION ALL augmenter (auto-recognized pristine pattern)")
	}
	return o.buildASJProject(j, widened, func(rc types.ColumnID) plan.Expr {
		if anchorCol, isSel := selectorFor[rc]; isSel {
			return &plan.ColRef{ID: anchorCol, Typ: o.ctx.Type(anchorCol)}
		}
		id := m[slotOf[rc]]
		return &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}
	})
}

// tryUnionAnchorASJ handles Figure 13a: the augmenter is a single table
// T while the anchor is (reachable through pass-through operators from)
// a Union All whose every child contains its own self-join instance of
// T carrying the key columns at the same positions.
func (o *Optimizer) tryUnionAnchorASJ(j *plan.Join, branch *augInfo, cond *asjCond) plan.Node {
	if len(cond.keyPairs) == 0 {
		return nil
	}
	var anchorCols []types.ColumnID
	for _, kp := range cond.keyPairs {
		anchorCols = append(anchorCols, kp.anchorCol)
	}
	au, posOf, _, ok := o.resolveToUnion(j.Left, anchorCols)
	if !ok {
		return nil
	}
	augPreds := append(append([]canonPred(nil), branch.preds...), cond.extraPred...)
	if len(augPreds) > 0 && !o.caps.Has(CapASJFilter) {
		return nil
	}
	childInsts := make([]int, len(au.Children))
	for k, child := range au.Children {
		childCols := child.Columns()
		inst := -1
		for _, kp := range cond.keyPairs {
			ord, has := branch.colOrd[kp.augCol]
			if !has {
				return nil
			}
			s, has := o.sourceOf(child, childCols[posOf[kp.anchorCol]])
			if !has || !equalsFold(s.table, branch.scan.Info.Name) || s.ord != ord {
				return nil
			}
			if inst == -1 {
				inst = s.instance
			} else if inst != s.instance {
				return nil
			}
		}
		if len(augPreds) > 0 && !o.covered(augPreds, anchorPredsFor(child, inst)) {
			return nil
		}
		if j.Kind == plan.InnerJoin && nullableInstances(child)[inst] {
			return nil
		}
		childInsts[k] = inst
	}

	// Slots: every augmenter output column, by ordinal (identical for
	// all children since there is a single augmenter table).
	rightCols := j.Right.Columns()
	slotOf := map[types.ColumnID]int{}
	var slotOrds []int
	for _, rc := range rightCols {
		ord, has := branch.colOrd[rc]
		if !has {
			return nil
		}
		slotOf[rc] = len(slotOrds)
		slotOrds = append(slotOrds, ord)
	}
	childSlots := make([][]slotSrc, len(au.Children))
	for k := range au.Children {
		for _, ord := range slotOrds {
			childSlots[k] = append(childSlots[k], slotSrc{ord: ord})
		}
	}
	target := &widenTarget{union: au, childInsts: childInsts, childSlots: childSlots, nSlots: len(slotOrds)}
	widened, m, ok := o.widen(j.Left, target)
	if !ok {
		return nil
	}
	o.rewrote()
	o.logEvent("asj-union-anchor-elim", j, plan.CollectStats(j.Right).Joins+1,
		"ASJ with UNION ALL anchor: augmenter served by per-child self-join instances")
	return o.buildASJProject(j, widened, func(rc types.ColumnID) plan.Expr {
		id := m[slotOf[rc]]
		return &plan.ColRef{ID: id, Typ: o.ctx.Type(id)}
	})
}

func sameSelectorMap(a, b map[types.ColumnID]types.ColumnID) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
