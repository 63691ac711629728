package exec

import (
	"fmt"
	"slices"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Compilation of plans into vectorized batch operators. With the batch
// executor on, the compiler takes every plan: each node compiles into a
// batch source (snapshot scans, VALUES, joins, LIMIT, UNION ALL,
// aggregations, ORDER BY and DISTINCT) or into a filter/project stage of
// the pipeline over one, and Build puts the one row adapter above the
// compiled root. A compile function returns a fragment or a genuine
// build error (a missing table or column), never a decline.
//
// Filter conjuncts, computed projections, aggregate arguments and hash
// join keys compile through compileExpr: an expression the
// typed kernels cover exactly (compileVecExpr) becomes a kernel tree,
// and any other one — division, MOD, TO_DECIMAL, a mixed-type
// comparison, an IN list of expressions — is evaluated whole, row by row
// over the selected rows, by the row evaluator (veRow). A filter over a
// scan derives the scan's zone-map ranges with zoneRanges, as the row
// path does.

// SetVectorize enables the vectorized batch executor for subsequent
// Build calls, with column batches of the given size (<= 0 selects
// DefaultBatchSize). A builder that is never told to vectorize runs the
// row executor, the reference the equivalence tests compare against.
func (b *Builder) SetVectorize(batchSize int) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	b.vecSize = batchSize
}

// vecFrag is a compiled pipeline fragment: the pipeline plus the
// mapping from output column IDs to batch columns, the plan node of its
// source, and the source's input fragments, both for EXPLAIN ANALYZE
// attribution. Each stage names its own node.
type vecFrag struct {
	spec *vecSpec
	cols []types.ColumnID
	node plan.Node
	kids []*vecFrag
}

// newVecSpec returns a stage-less pipeline over a source of the given
// width, its output columns being the source's.
func newVecSpec(src batchSource, width int) *vecSpec {
	s := &vecSpec{src: src, width: width, numCols: width, proj: make([]int, width)}
	for i := range s.proj {
		s.proj[i] = i
	}
	return s
}

// batchCol returns the batch column holding the given output column.
func (f *vecFrag) batchCol(id types.ColumnID) (int, bool) {
	for i, c := range f.cols {
		if c == id {
			return f.spec.proj[i], true
		}
	}
	return 0, false
}

// vecFragment compiles the plan rooted at n into a pipeline fragment.
func (b *Builder) vecFragment(n plan.Node) (*vecFrag, error) {
	switch n := n.(type) {
	case *plan.Scan:
		tbl, ok := b.db.Table(n.Info.Name)
		if !ok {
			return nil, fmt.Errorf("exec: table %s does not exist", n.Info.Name)
		}
		scan := &scanSource{snap: tbl.SnapshotAt(b.ts), ords: n.Ords, batchSize: b.vecSize, gov: b.gov, met: b.met}
		return &vecFrag{spec: newVecSpec(scan, len(n.Ords)), cols: n.Cols, node: n}, nil
	case *plan.Values:
		rows, err := valueRows(n)
		if err != nil {
			return nil, err
		}
		vs := &valuesSource{rows: rows, rowPacker: b.packer(n.Cols)}
		return &vecFrag{spec: newVecSpec(vs, len(n.Cols)), cols: n.Cols, node: n}, nil
	case *plan.Join:
		return b.vecJoin(n)
	case *plan.Limit:
		return b.vecLimit(n)
	case *plan.UnionAll:
		return b.vecUnion(n)
	case *plan.GroupBy:
		return b.vecGroupBy(n)
	case *plan.Sort:
		return b.vecSort(n, nil)
	case *plan.Distinct:
		return b.vecDistinct(n)
	case *plan.Filter:
		f, err := b.vecFragment(n.Input)
		if err != nil {
			return nil, err
		}
		return f, f.applyFilter(n)
	case *plan.Project:
		f, err := b.vecFragment(n.Input)
		if err != nil {
			return nil, err
		}
		return f, f.applyProject(n)
	}
	return nil, fmt.Errorf("exec: cannot build %T", n)
}

// vecLimit compiles a LIMIT into a limit source, whose fragment passes
// the input's batch columns through, and a LIMIT over ORDER BY into the
// sort source the two fuse into. A negative offset skips nothing, as in
// the row limit.
func (b *Builder) vecLimit(n *plan.Limit) (*vecFrag, error) {
	if srt, ok := n.Input.(*plan.Sort); ok && n.Offset >= 0 {
		return b.vecSort(srt, n)
	}
	in, err := b.vecFragment(n.Input)
	if err != nil {
		return nil, err
	}
	ls := &limitSource{in: in.spec, offset: max(n.Offset, 0), count: n.Count}
	ls.scan, _ = in.spec.src.(*scanSource)
	return passFrag(ls, in, n), nil
}

// passFrag returns the fragment of a source run for n that passes its
// input fragment's batch columns through.
func passFrag(src batchSource, in *vecFrag, n plan.Node) *vecFrag {
	spec := newVecSpec(src, in.spec.numCols)
	spec.proj = slices.Clone(in.spec.proj)
	return &vecFrag{spec: spec, cols: in.cols, node: n, kids: []*vecFrag{in}}
}

// packer returns a row packer into vectors of the columns' plan types.
func (b *Builder) packer(cols []types.ColumnID) rowPacker {
	p := rowPacker{typs: make([]types.Type, len(cols)), size: b.vecSize, out: Batch{Cols: make([]types.Vec, len(cols))}}
	for i, id := range cols {
		p.typs[i] = b.ctx.Type(id)
	}
	return p
}

// vecUnion compiles a UNION ALL into a union source. Its branches pass
// their vectors through, so each branch column must have the union
// column's type; the binder converts branches to the columns' common
// type, and a plan that breaks the rule is an error.
func (b *Builder) vecUnion(n *plan.UnionAll) (*vecFrag, error) {
	us := &unionSource{out: Batch{Cols: make([]types.Vec, len(n.Cols))}}
	f := &vecFrag{spec: newVecSpec(us, len(n.Cols)), cols: n.Cols, node: n}
	for bi, c := range n.Children {
		k, err := b.vecFragment(c)
		if err != nil {
			return nil, err
		}
		if len(k.cols) != len(n.Cols) {
			return nil, fmt.Errorf("exec: UNION ALL branch %d has %d columns, want %d", bi, len(k.cols), len(n.Cols))
		}
		for i, id := range k.cols {
			if got, want := b.ctx.Type(id), b.ctx.Type(n.Cols[i]); got != want {
				return nil, fmt.Errorf("exec: UNION ALL branch %d column %d is %s, want %s", bi, i+1, got, want)
			}
		}
		us.kids = append(us.kids, k.spec)
		f.kids = append(f.kids, k)
	}
	return f, nil
}

// allTrue returns n true flags.
func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// exprCols returns the batch columns an expression reads.
func (f *vecFrag) exprCols(e plan.Expr) []int {
	var out []int
	plan.ColsUsed(e).ForEach(func(id types.ColumnID) {
		if bc, ok := f.batchCol(id); ok {
			out = append(out, bc)
		}
	})
	return out
}

// predicate compiles a condition's conjuncts into filter kernels: one
// per conjunct when each has a typed kernel, else one row kernel over
// the whole condition, so that its AND/OR short-circuiting and its first
// error are the row evaluator's.
func (f *vecFrag) predicate(conjs []plan.Expr, cond plan.Expr) ([]vecExpr, error) {
	ks := make([]vecExpr, 0, len(conjs))
	for _, c := range conjs {
		ex, t, ok := f.compileVecExpr(c)
		if !ok || !typedAs(c, t, types.TBool) {
			ex, err := f.rowKernel(cond, types.TBool)
			return []vecExpr{ex}, err
		}
		ks = append(ks, ex)
	}
	return ks, nil
}

// applyFilter compiles one Filter node into a stage appended to the
// fragment. Over a join source, conjuncts with typed kernels that read
// build columns only fold into the join (joinSource.fold); the stage
// keeps the rest, and stays for EXPLAIN ANALYZE to count the filter's
// rows even when it keeps none. Over a scan, the conjuncts add their
// zone-map ranges to the scan's (zoneRanges).
func (f *vecFrag) applyFilter(n *plan.Filter) error {
	st := vecStage{node: n}
	conjs := plan.Conjuncts(n.Cond)
	ks, err := f.predicate(conjs, n.Cond)
	if err != nil {
		return err
	}
	js, _ := f.spec.src.(*joinSource)
	if _, whole := ks[0].(*veRow); whole {
		st.filt = ks
		f.spec.reads = append(f.spec.reads, f.exprCols(n.Cond)...)
		ks = nil
	}
	for i, ex := range ks {
		cols := f.exprCols(conjs[i])
		if js != nil && js.fold(ex, cols, f.spec) {
			st.folded++
			continue
		}
		st.filt = append(st.filt, ex)
		f.spec.reads = append(f.spec.reads, cols...)
	}
	if scan, ok := f.spec.src.(*scanSource); ok {
		scan.ranges = zoneRanges(scan.ranges, conjs, func(id types.ColumnID) (int, bool) {
			bc, ok := f.batchCol(id)
			if !ok || bc >= len(scan.ords) {
				return 0, false // a computed column
			}
			return scan.ords[bc], true
		})
	}
	f.spec.stages = append(f.spec.stages, st)
	return nil
}

// applyProject compiles one Project node — a column shuffle plus
// computed expressions — into a stage appended to the fragment.
func (f *vecFrag) applyProject(n *plan.Project) error {
	st := vecStage{node: n}
	proj := make([]int, len(n.Cols))
	cols := make([]types.ColumnID, len(n.Cols))
	for i, c := range n.Cols {
		if cr, ok := c.Expr.(*plan.ColRef); ok {
			bc, ok := f.batchCol(cr.ID)
			if !ok {
				return fmt.Errorf("exec: column #%d not available in this row", cr.ID)
			}
			proj[i], cols[i] = bc, c.ID
			continue
		}
		ce, err := f.compute(c.Expr)
		if err != nil {
			return err
		}
		st.exprs = append(st.exprs, ce)
		proj[i], cols[i] = ce.dst, c.ID
	}
	f.spec.proj, f.cols = proj, cols
	f.spec.stages = append(f.spec.stages, st)
	return nil
}

// compute compiles e into a computed column: a new batch column the
// kernel publishes.
func (f *vecFrag) compute(e plan.Expr) (vecCompute, error) {
	ex, err := f.compileExpr(e)
	if err != nil {
		return vecCompute{}, err
	}
	f.spec.reads = append(f.spec.reads, f.exprCols(e)...)
	dst := f.spec.numCols
	f.spec.numCols++
	return vecCompute{expr: ex, dst: dst}, nil
}

// stageCols returns the batch column of each expression: an output
// column's own for a bare column reference, else a column computed, in
// expression order, by one stage appended to the fragment. The stage
// has no plan node: it is the aggregation's or the join's own work.
func (f *vecFrag) stageCols(exprs []plan.Expr) ([]int, error) {
	out := make([]int, len(exprs))
	var st vecStage
	for i, e := range exprs {
		if cr, ok := e.(*plan.ColRef); ok {
			if bc, ok := f.batchCol(cr.ID); ok {
				out[i] = bc
				continue
			}
		}
		ce, err := f.compute(e)
		if err != nil {
			return nil, err
		}
		st.exprs = append(st.exprs, ce)
		out[i] = ce.dst
	}
	if len(st.exprs) > 0 {
		f.spec.stages = append(f.spec.stages, st)
	}
	return out, nil
}

// attachVecStats finishes a compiled fragment, recursively through its
// source's inputs: it counts a LIMIT fused into a sort source, and under
// EXPLAIN ANALYZE has each stage and source record its work through its
// plan node's stats. The top node of the Build caller's fragment (top)
// is counted by the statIter around the row adapter, so its rows are
// not counted again — but a source records its build size and memory
// either way. A Filter that folded conjuncts into the join below notes
// folded=<folded>/<conjuncts>.
func (b *Builder) attachVecStats(f *vecFrag, top bool) {
	if s, ok := f.spec.src.(*sortSource); ok && s.lim != nil {
		b.noteFusion(s.srt, s.lim)
	}
	if b.analyze {
		last := -1 // the last stage with a plan node
		for i := range f.spec.stages {
			if f.spec.stages[i].node != nil {
				last = i
			}
		}
		f.spec.src.(interface{ attach(*OpStats, bool) }).attach(b.nodeStats(f.node), !top || last >= 0)
		for i := range f.spec.stages {
			stage := &f.spec.stages[i]
			if stage.node == nil {
				continue
			}
			st := b.nodeStats(stage.node)
			if stage.folded > 0 {
				st.Note = fmt.Sprintf("folded=%d/%d", stage.folded, stage.folded+len(stage.filt))
			}
			if !top || i < last {
				stage.stats = st
			}
		}
	}
	for _, k := range f.kids {
		b.attachVecStats(k, false)
	}
}

// vecRows finishes a fragment compiled for the Build caller and adapts
// its pipeline to the row Iterator contract. The adapter decodes every
// output column.
func (b *Builder) vecRows(f *vecFrag) Iterator {
	b.attachVecStats(f, true)
	f.spec.need(f.spec.proj)
	return &vecRowsIter{spec: f.spec, met: b.met}
}

// vecGroupBy compiles an aggregation into a group source. Its
// aggregates are the row path's groupSpecs, folded by the row path's
// state machine (vecAggTable.accumulate); an argument that is not a bare column
// is a column computed in a stage over the input, and a DISTINCT
// aggregate folds through accumulate's seen-set. The group source's
// vectors take the plan's column types.
func (b *Builder) vecGroupBy(n *plan.GroupBy) (*vecFrag, error) {
	f, err := b.vecFragment(n.Input)
	if err != nil {
		return nil, err
	}
	va := &vecAggSpec{spec: f.spec, scalarAgg: len(n.GroupCols) == 0}
	for _, g := range n.GroupCols {
		bc, ok := f.batchCol(g)
		if !ok {
			return nil, fmt.Errorf("exec: group column #%d missing from input", g)
		}
		va.groupCols = append(va.groupCols, bc)
	}
	var args []plan.Expr
	for _, a := range n.Aggs {
		spec := groupSpec{op: a.Op, star: a.Star, distinct: a.Distinct, typ: b.ctx.Type(a.ID)}
		if !a.Star {
			args = append(args, a.Arg)
			if a.Distinct {
				spec.arg = firstValue
			}
		}
		va.aggs = append(va.aggs, spec)
	}
	argCols, err := f.stageCols(args)
	if err != nil {
		return nil, err
	}
	// The fold reads the group and argument columns only: a count(*)
	// gathers no join build column at all.
	reads := slices.Clone(va.groupCols)
	for _, a := range va.aggs {
		col := 0
		if !a.star {
			col, argCols = argCols[0], argCols[1:]
			reads = append(reads, col)
		}
		va.argCols = append(va.argCols, col)
	}
	f.spec.need(reads)
	cols := n.Columns()
	g := &groupSource{va: va, gov: b.gov, rowPacker: b.packer(cols)}
	return &vecFrag{spec: newVecSpec(g, len(cols)), cols: cols, node: n, kids: []*vecFrag{f}}, nil
}

// firstValue is a DISTINCT aggregate's argument in the batch fold: the
// one value accumulate is handed.
func firstValue(row types.Row) (types.Value, error) { return row[0], nil }

// vecJoin compiles a join. An inner or left outer join with equi-keys
// and no residual, split as the row join's condition is
// (splitJoinCond), becomes the batch hash join, keyed by batch columns
// (an expression key is a column computed in a stage over its input).
// Every other join runs the row join over its inputs (rowJoinSource).
func (b *Builder) vecJoin(n *plan.Join) (*vecFrag, error) {
	lf, err := b.vecFragment(n.Left)
	if err != nil {
		return nil, err
	}
	rf, err := b.vecFragment(n.Right)
	if err != nil {
		return nil, err
	}
	lkeys, rkeys, residual, err := splitJoinCond(n, types.MakeColSet(lf.cols...), types.MakeColSet(rf.cols...))
	if err != nil {
		return nil, err
	}
	cols := n.Columns()
	kids := []*vecFrag{lf, rf}
	if (n.Kind != plan.InnerJoin && n.Kind != plan.LeftOuterJoin) || len(lkeys) == 0 || residual != nil {
		lf.spec.need(lf.spec.proj)
		rf.spec.need(rf.spec.proj)
		j, err := b.rowJoin(n, &vecRowsIter{spec: lf.spec}, &vecRowsIter{spec: rf.spec})
		if err != nil {
			return nil, err
		}
		rj := &rowJoinSource{join: j, rowPacker: b.packer(cols)}
		return &vecFrag{spec: newVecSpec(rj, len(cols)), cols: cols, node: n, kids: kids}, nil
	}
	lkc, err := lf.stageCols(lkeys)
	if err != nil {
		return nil, err
	}
	rkc, err := rf.stageCols(rkeys)
	if err != nil {
		return nil, err
	}
	// The build side is the optimizer's choice, as in the row join.
	js := &joinSource{
		buildLeft: n.BuildLeft,
		leftOuter: n.Kind == plan.LeftOuterJoin,
		batchSize: b.vecSize,
		gov:       b.gov,
		met:       b.met,
	}
	nl := len(lf.cols)
	probe := lf
	if js.buildLeft {
		js.build, js.probe = lf.spec, rf.spec
		js.bkc, js.pkc = lkc, rkc
		js.probeOff, js.buildOff = nl, 0
		probe = rf
	} else {
		js.build, js.probe = rf.spec, lf.spec
		js.bkc, js.pkc = rkc, lkc
		js.probeOff, js.buildOff = 0, nl
	}
	for _, id := range probe.cols {
		js.probeTyps = append(js.probeTyps, b.ctx.Type(id))
	}
	js.keep = allTrue(len(cols))
	js.store = allTrue(len(js.build.proj))
	return &vecFrag{spec: newVecSpec(js, len(cols)), cols: cols, node: n, kids: kids}, nil
}

// vecSort compiles a Sort into a sort source. lim is the LIMIT/OFFSET
// fused into it, nil for a bare ORDER BY; the fused source runs for the
// Limit node.
func (b *Builder) vecSort(srt *plan.Sort, lim *plan.Limit) (*vecFrag, error) {
	in, err := b.vecFragment(srt.Input)
	if err != nil {
		return nil, err
	}
	keys, err := b.sortKeys(srt)
	if err != nil {
		return nil, err
	}
	kc := make([]int, len(keys))
	for x, k := range keys {
		kc[x] = in.spec.proj[k.idx]
	}
	in.spec.need(in.spec.proj)
	s := &sortSource{sortPage: sortPage{keys: keys, count: -1, gov: b.gov}, in: in.spec, keyCols: kc,
		rowPacker: b.packer(in.cols), srt: srt, lim: lim}
	var top plan.Node = srt
	if lim != nil {
		s.offset, s.count, top = lim.Offset, lim.Count, lim
	}
	return &vecFrag{spec: newVecSpec(s, len(in.cols)), cols: in.cols, node: top, kids: []*vecFrag{in}}, nil
}

// vecDistinct compiles DISTINCT into a distinct source. Its fragment
// passes the input's batch columns through.
func (b *Builder) vecDistinct(n *plan.Distinct) (*vecFrag, error) {
	in, err := b.vecFragment(n.Input)
	if err != nil {
		return nil, err
	}
	in.spec.need(in.spec.proj)
	return passFrag(&distinctSource{in: in.spec, gov: b.gov}, in, n), nil
}
