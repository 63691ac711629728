package exec

import (
	"fmt"
	"slices"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Builder compiles logical plans into iterator trees against a storage
// snapshot timestamp.
type Builder struct {
	ctx *plan.Context
	db  *storage.DB
	ts  uint64

	// analyze turns on EXPLAIN ANALYZE instrumentation: every built
	// iterator is wrapped in a statIter recording into stats. Off by
	// default so normal execution pays nothing.
	analyze bool
	stats   map[plan.Node]*OpStats

	// vecSize > 0 enables the vectorized batch executor (see
	// SetVectorize); it is the rows per column batch.
	vecSize int
	// met receives executor counters when set (see SetMetrics).
	met *Metrics
	// gov carries the query's cancellation context, memory budget, and
	// test hooks (see SetGovernance); nil runs ungoverned.
	gov *Governance
}

// SetGovernance attaches a query's governance handle: subsequent Build
// calls produce iterators that check its context at batch granularity,
// meter blocking-operator memory against its budget, and fire its test
// hooks at pause points. A nil handle (the default) is free.
func (b *Builder) SetGovernance(g *Governance) { b.gov = g }

// SetMetrics directs executor counters (top-k fusions, vector
// pipelines, batches and fallbacks) to m.
func (b *Builder) SetMetrics(m *Metrics) { b.met = m }

// NewBuilder returns a builder reading the database as of commit
// timestamp ts.
func NewBuilder(ctx *plan.Context, db *storage.DB, ts uint64) *Builder {
	return &Builder{ctx: ctx, db: db, ts: ts}
}

// slotsOf maps a node's output columns to row positions.
func slotsOf(n plan.Node) map[types.ColumnID]int {
	cols := n.Columns()
	m := make(map[types.ColumnID]int, len(cols))
	for i, id := range cols {
		m[id] = i
	}
	return m
}

// EnableAnalyze turns on per-operator instrumentation for subsequent
// Build calls; NodeStats exposes the recorded counters afterwards.
func (b *Builder) EnableAnalyze() {
	b.analyze = true
	if b.stats == nil {
		b.stats = make(map[plan.Node]*OpStats)
	}
}

// NodeStats returns the runtime counters recorded for n, or nil when n
// was never built or analyze mode is off.
func (b *Builder) NodeStats(n plan.Node) *OpStats { return b.stats[n] }

func (b *Builder) nodeStats(n plan.Node) *OpStats {
	st := b.stats[n]
	if st == nil {
		st = &OpStats{}
		b.stats[n] = st
	}
	return st
}

// wrapNode attaches instrumentation to a built iterator in analyze mode.
func (b *Builder) wrapNode(n plan.Node, it Iterator) Iterator {
	if !b.analyze {
		return it
	}
	return &statIter{inner: it, stats: b.nodeStats(n)}
}

// Build compiles the plan rooted at n.
func (b *Builder) Build(n plan.Node) (Iterator, error) {
	it, err := b.build(n)
	if err != nil {
		return nil, err
	}
	return b.wrapNode(n, it), nil
}

// build compiles n into one batch pipeline behind the row adapter when
// vectorizing, else into the row iterators.
func (b *Builder) build(n plan.Node) (Iterator, error) {
	if b.vecSize == 0 {
		return b.buildRow(n)
	}
	f, err := b.vecFragment(n)
	if err != nil {
		return nil, err
	}
	return b.vecRows(f), nil
}

// buildRow builds n's row iterator.
func (b *Builder) buildRow(n plan.Node) (Iterator, error) {
	switch n := n.(type) {
	case *plan.Scan:
		tbl, ok := b.db.Table(n.Info.Name)
		if !ok {
			return nil, fmt.Errorf("exec: table %s does not exist", n.Info.Name)
		}
		return &scanIter{snap: tbl.SnapshotAt(b.ts), ords: n.Ords, gov: b.gov}, nil

	case *plan.Filter:
		// Filter directly over a scan: extract range constraints for
		// zone-map block pruning; the filter still runs for exactness.
		var ranges []storage.ColRange
		scan, fused := n.Input.(*plan.Scan)
		if fused {
			ranges = zoneRanges(nil, plan.Conjuncts(n.Cond), func(id types.ColumnID) (int, bool) {
				if i := slices.Index(scan.Cols, id); i >= 0 {
					return scan.Ords[i], true
				}
				return 0, false
			})
		}
		var input Iterator
		var err error
		if len(ranges) > 0 {
			// Wrap the fused scan separately so EXPLAIN ANALYZE still
			// reports the Scan node's own row counts.
			if input, err = b.buildPrunedScan(scan, ranges); err == nil {
				input = b.wrapNode(scan, input)
			}
		} else {
			input, err = b.Build(n.Input)
		}
		if err != nil {
			return nil, err
		}
		cond, err := Compile(n.Cond, slotsOf(n.Input))
		if err != nil {
			return nil, err
		}
		return &filterIter{input: input, cond: cond}, nil

	case *plan.Project:
		input, err := b.Build(n.Input)
		if err != nil {
			return nil, err
		}
		slots := slotsOf(n.Input)
		var exprs []EvalFn
		for _, c := range n.Cols {
			fn, err := Compile(c.Expr, slots)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, fn)
		}
		return &projectIter{input: input, exprs: exprs}, nil

	case *plan.Join:
		return b.buildJoin(n)

	case *plan.GroupBy:
		input, err := b.Build(n.Input)
		if err != nil {
			return nil, err
		}
		slots := slotsOf(n.Input)
		it := &groupByIter{input: input, scalarAgg: len(n.GroupCols) == 0, gov: b.gov}
		for _, g := range n.GroupCols {
			idx, ok := slots[g]
			if !ok {
				return nil, fmt.Errorf("exec: group column #%d missing from input", g)
			}
			it.groupIdx = append(it.groupIdx, idx)
		}
		for _, a := range n.Aggs {
			spec := groupSpec{op: a.Op, star: a.Star, distinct: a.Distinct, typ: b.ctx.Type(a.ID)}
			if !a.Star {
				fn, err := Compile(a.Arg, slots)
				if err != nil {
					return nil, err
				}
				spec.arg = fn
			}
			it.aggs = append(it.aggs, spec)
		}
		return it, nil

	case *plan.UnionAll:
		var children []Iterator
		for _, c := range n.Children {
			it, err := b.Build(c)
			if err != nil {
				return nil, err
			}
			children = append(children, it)
		}
		return &unionIter{children: children}, nil

	case *plan.Sort:
		return b.buildSort(n, nil)

	case *plan.Limit:
		if srt, ok := n.Input.(*plan.Sort); ok && n.Offset >= 0 {
			return b.buildSort(srt, n)
		}
		input, err := b.Build(n.Input)
		if err != nil {
			return nil, err
		}
		return &limitIter{input: input, count: n.Count, offset: n.Offset}, nil

	case *plan.Distinct:
		input, err := b.Build(n.Input)
		if err != nil {
			return nil, err
		}
		return &distinctIter{input: input, gov: b.gov}, nil

	case *plan.Values:
		rows, err := valueRows(n)
		if err != nil {
			return nil, err
		}
		return &valuesIter{rows: rows}, nil
	}
	return nil, fmt.Errorf("exec: cannot build %T", n)
}

// valueRows evaluates a VALUES node's literal rows.
func valueRows(n *plan.Values) ([]types.Row, error) {
	var rows []types.Row
	empty := map[types.ColumnID]int{}
	for _, exprRow := range n.Rows {
		row := make(types.Row, len(exprRow))
		for i, e := range exprRow {
			fn, err := Compile(e, empty)
			if err != nil {
				return nil, err
			}
			v, err := fn(nil)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// buildPrunedScan builds the row scan beneath a row filter, pruned by
// the filter's zone-map ranges.
func (b *Builder) buildPrunedScan(scan *plan.Scan, ranges []storage.ColRange) (Iterator, error) {
	tbl, ok := b.db.Table(scan.Info.Name)
	if !ok {
		return nil, fmt.Errorf("exec: table %s does not exist", scan.Info.Name)
	}
	return &scanIter{snap: tbl.SnapshotAt(b.ts), ords: scan.Ords, ranges: ranges, gov: b.gov}, nil
}

func (b *Builder) buildJoin(n *plan.Join) (Iterator, error) {
	left, err := b.Build(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := b.Build(n.Right)
	if err != nil {
		return nil, err
	}
	return b.rowJoin(n, left, right)
}

// rowJoin builds the row join of n over its inputs' row iterators.
func (b *Builder) rowJoin(n *plan.Join, left, right Iterator) (*joinIter, error) {
	j := &joinIter{left: left, right: right, kind: n.Kind, gov: b.gov}
	for _, id := range n.Right.Columns() {
		j.rightTypes = append(j.rightTypes, b.ctx.Type(id))
	}
	lkeys, rkeys, residual, err := splitJoinCond(n, plan.ColumnsOf(n.Left), plan.ColumnsOf(n.Right))
	if err != nil {
		return nil, err
	}
	leftSlots, rightSlots := slotsOf(n.Left), slotsOf(n.Right)
	for i := range lkeys {
		if err := j.addKey(lkeys[i], rkeys[i], leftSlots, rightSlots); err != nil {
			return nil, err
		}
	}
	if n.NotIn != nil {
		j.notIn = j.probeKeys[len(j.probeKeys)-1]
	}
	if residual != nil {
		// Residual predicates see the concatenated left++right row (an
		// inner join's), which for semi/anti joins is wider than the
		// node's output.
		combinedSlots := slotsOf(&plan.Join{Kind: plan.InnerJoin, Left: n.Left, Right: n.Right})
		if j.residual, err = Compile(residual, combinedSlots); err != nil {
			return nil, err
		}
	}
	// The optimizer alone chooses the build side (n.BuildLeft). Semi,
	// anti and keyless joins always build right.
	if (n.Kind == plan.InnerJoin || n.Kind == plan.LeftOuterJoin) && len(j.buildKeys) > 0 && n.BuildLeft {
		j.buildLeft = true
		j.buildKeys, j.probeKeys = j.probeKeys, j.buildKeys
	}
	return j, nil
}

// splitJoinCond splits a join condition into equi-keys and a residual,
// the one split of the row and batch joins: lkeys[i] over the left
// input (columns leftCols) equals rkeys[i] over the right (rightCols),
// and the residual (nil when none) is every other conjunct. NOT IN's
// x = y is found by its column y and keyed last: the keys before it
// are the correlation.
func splitJoinCond(n *plan.Join, leftCols, rightCols types.ColSet) (lkeys, rkeys []plan.Expr, residual plan.Expr, err error) {
	var rest []plan.Expr
	var notInX plan.Expr
	for _, conj := range plan.Conjuncts(n.Cond) {
		l, r := equiSides(conj, leftCols, rightCols)
		if y, ok := r.(*plan.ColRef); ok && n.NotIn != nil && y.ID == n.NotIn.ID && notInX == nil {
			notInX = l
		} else if l != nil && !plan.ColsUsed(l).Empty() && !plan.ColsUsed(r).Empty() {
			lkeys, rkeys = append(lkeys, l), append(rkeys, r)
		} else {
			rest = append(rest, conj)
		}
	}
	if n.NotIn != nil {
		if notInX == nil {
			return nil, nil, nil, fmt.Errorf("exec: NOT IN comparison on #%d missing from the join condition", n.NotIn.ID)
		}
		lkeys, rkeys = append(lkeys, notInX), append(rkeys, n.NotIn)
	}
	return lkeys, rkeys, plan.AndAll(rest), nil
}

// addKey compiles one equi-key pair, lexpr over left rows and rexpr
// over right rows, as a build-right key.
func (j *joinIter) addKey(lexpr, rexpr plan.Expr, leftSlots, rightSlots map[types.ColumnID]int) error {
	lk, err := Compile(lexpr, leftSlots)
	if err != nil {
		return err
	}
	rk, err := Compile(rexpr, rightSlots)
	if err != nil {
		return err
	}
	j.probeKeys = append(j.probeKeys, lk)
	j.buildKeys = append(j.buildKeys, rk)
	return nil
}

// equiSides splits conj, when it is an equality between an expression
// over the left input and one over the right, into those two sides
// (left first); otherwise both are nil.
func equiSides(conj plan.Expr, leftCols, rightCols types.ColSet) (l, r plan.Expr) {
	eq, ok := conj.(*plan.Bin)
	if !ok || eq.Op != "=" {
		return nil, nil
	}
	lUsed, rUsed := plan.ColsUsed(eq.L), plan.ColsUsed(eq.R)
	switch {
	case lUsed.SubsetOf(leftCols) && rUsed.SubsetOf(rightCols):
		return eq.L, eq.R
	case lUsed.SubsetOf(rightCols) && rUsed.SubsetOf(leftCols):
		return eq.R, eq.L
	}
	return nil, nil
}

// buildSort builds the row ORDER BY operator over srt's input. lim is
// the LIMIT/OFFSET fused into it, nil for a bare ORDER BY; either way one
// stable sort by topkHeap's rule, bounded to the page when lim is.
func (b *Builder) buildSort(srt *plan.Sort, lim *plan.Limit) (Iterator, error) {
	input, err := b.Build(srt.Input)
	if err != nil {
		return nil, err
	}
	keys, err := b.sortKeys(srt)
	if err != nil {
		return nil, err
	}
	it := &sortIter{sortPage: sortPage{keys: keys, count: -1, gov: b.gov}, input: input}
	if lim != nil {
		it.offset, it.count = lim.Offset, lim.Count
		b.noteFusion(srt, lim)
	}
	return it, nil
}

// noteFusion records a LIMIT fused into the ORDER BY below it: in
// exec.topk_fusions, and under analyze as the Limit's top-k window and
// on the Sort, which runs no operator of its own.
func (b *Builder) noteFusion(srt *plan.Sort, lim *plan.Limit) {
	if b.met != nil {
		b.met.TopKFusions.Inc()
	}
	if b.analyze {
		note := topkNote(lim.Offset, lim.Count)
		b.nodeStats(lim).Note = note
		if note == "" {
			note = "limit"
		}
		b.nodeStats(srt).Note = "fused into " + note
	}
}

// sortKeys resolves a Sort node's keys to row positions.
func (b *Builder) sortKeys(n *plan.Sort) ([]sortKeySpec, error) {
	slots := slotsOf(n.Input)
	var keys []sortKeySpec
	for _, k := range n.Keys {
		idx, ok := slots[k.Col]
		if !ok {
			return nil, fmt.Errorf("exec: sort column #%d missing from input", k.Col)
		}
		keys = append(keys, sortKeySpec{idx: idx, desc: k.Desc})
	}
	return keys, nil
}

// zoneRanges adds the zone-map pruning ranges that filter conjuncts imply
// to rs, one ColRange per storage ordinal, and returns it. It is the one
// range builder of the row Filter(Scan) and of every batch filter stage
// over a scan. ordOf maps a column to its storage ordinal; a computed
// column has none and bounds nothing. A `col op literal` conjunct sets
// its bound, overwriting an earlier one; `<>` and NULL literals bound
// nothing; an OR whose every branch compares one shared column with a
// literal sets the closed range enclosing its branches.
func zoneRanges(rs []storage.ColRange, conjs []plan.Expr, ordOf func(types.ColumnID) (int, bool)) []storage.ColRange {
	get := func(ord int) *storage.ColRange {
		for i := range rs {
			if rs[i].Ord == ord {
				return &rs[i]
			}
		}
		rs = append(rs, storage.ColRange{Ord: ord})
		return &rs[len(rs)-1]
	}
	for _, conj := range conjs {
		if disj := plan.Disjuncts(conj); len(disj) > 1 {
			if ord, lo, hi, ok := orRange(disj, ordOf); ok {
				r := get(ord)
				if lo != nil {
					r.Lo, r.LoOpen = lo, false
				}
				if hi != nil {
					r.Hi, r.HiOpen = hi, false
				}
			}
			continue
		}
		cr, v, op, ok := colConstCmp(conj)
		if !ok || v.IsNull() {
			continue
		}
		ord, ok := ordOf(cr.ID)
		if !ok {
			continue
		}
		switch op {
		case "=":
			get(ord).Eq = &v
		case "<":
			get(ord).Hi, get(ord).HiOpen = &v, true
		case "<=":
			get(ord).Hi, get(ord).HiOpen = &v, false
		case ">":
			get(ord).Lo, get(ord).LoOpen = &v, true
		case ">=":
			get(ord).Lo, get(ord).LoOpen = &v, false
		}
	}
	return rs
}

// orRange returns the storage ordinal and enclosing closed range of an
// OR whose every branch is a `col op literal` comparison on one column:
// lo the least lower bound and hi the greatest upper bound, nil where a
// branch leaves that side open. A NULL-literal branch keeps no row and
// adds nothing. ok is false when there is no such range: a branch of
// another shape (IS NULL, IN, AND chains, `<>`), two columns, or bounds
// that do not compare.
func orRange(disj []plan.Expr, ordOf func(types.ColumnID) (int, bool)) (ord int, lo, hi *types.Value, ok bool) {
	ord = -1
	haveLo, haveHi := true, true
	// widen moves bound b out to v on side sign (-1 lower, +1 upper).
	widen := func(b **types.Value, v *types.Value, sign int) bool {
		if *b == nil {
			*b = v
			return true
		}
		c, err := types.Compare(*v, **b)
		if c*sign > 0 {
			*b = v
		}
		return err == nil
	}
	for _, d := range disj {
		cr, v, op, isCmp := colConstCmp(d)
		if !isCmp {
			return -1, nil, nil, false
		}
		if v.IsNull() {
			continue
		}
		o, known := ordOf(cr.ID)
		if !known || (ord >= 0 && o != ord) {
			return -1, nil, nil, false
		}
		ord = o
		var blo, bhi *types.Value
		switch op {
		case "=":
			blo, bhi = &v, &v
		case "<", "<=":
			bhi = &v
		case ">", ">=":
			blo = &v
		default:
			return -1, nil, nil, false
		}
		if blo == nil {
			haveLo = false
		} else if haveLo && !widen(&lo, blo, -1) {
			return -1, nil, nil, false
		}
		if bhi == nil {
			haveHi = false
		} else if haveHi && !widen(&hi, bhi, 1) {
			return -1, nil, nil, false
		}
	}
	if !haveLo {
		lo = nil
	}
	if !haveHi {
		hi = nil
	}
	return ord, lo, hi, ord >= 0 && (lo != nil || hi != nil)
}

// colConstCmp is plan.ColConstCmp over any expression.
func colConstCmp(e plan.Expr) (*plan.ColRef, types.Value, string, bool) {
	if b, ok := e.(*plan.Bin); ok {
		return plan.ColConstCmp(b)
	}
	return nil, types.Value{}, "", false
}

// Run materializes all rows of a plan. Under governance it is also the
// query's recover boundary inside the executor (panics become typed
// ErrInternal naming the operator), checks cancellation per batch of
// result rows, and meters the materialized result against the memory
// budget.
func (b *Builder) Run(n plan.Node) (rows []types.Row, err error) {
	if b.gov != nil {
		defer func() {
			if r := recover(); r != nil {
				rows, err = nil, panicErr(opName(n), r)
			}
		}()
		if err := b.gov.Err(); err != nil {
			return nil, err
		}
	}
	it, err := b.Build(n)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, err
	}
	acct := memAcct{gov: b.gov}
	defer acct.close()
	stride := govStride{gov: b.gov}
	var out []types.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
		if b.gov != nil {
			if err := acct.add(rowBytes(row)); err != nil {
				return nil, err
			}
			if err := stride.tick(); err != nil {
				return nil, err
			}
		}
	}
}
