package exec

import (
	"fmt"
	"slices"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Compilation of plan subtrees into vectorized batch operators. The
// compiler is the only authority on what vectorizes: a subtree runs in
// batch mode iff it compiles here, into batch sources (snapshot scans,
// hash joins, LIMIT, UNION ALL, aggregations, ORDER BY and DISTINCT) and
// the filter/project pipelines over them; Build puts the one row adapter
// above the compiled root. Filter conjuncts and
// computed projections alike compile through compileVecExpr, the one
// expression compiler, and a filter over a scan derives the scan's
// zone-map ranges with zoneRanges, as the row path does. The rules are
// deliberately conservative — a shape compiles only when the batch
// kernels are guaranteed to reproduce the row path's semantics exactly,
// including three-valued logic, type promotion and aggregate NULL
// handling — because declining is always safe: a compile function that
// returns nil hands the node to the row-at-a-time builder, which
// produces identical rows in identical order (and identical errors).
//
// A decline carries its reason out of the compile call as one of four
// vec_fallback labels (expression, or, union, distinct). The label
// is non-empty only when the node's inputs compiled and the node itself
// did not — or, for a UNION ALL, when it is no batch source, since a
// branch that is not one is the union's gap — so every coverage gap is
// reported once, at the operator that owns it; noteFallback surfaces it
// through EXPLAIN and the exec.vec_fallbacks metrics. An operator above
// a row operator is row-built unlabelled.

// SetVectorize enables the vectorized batch executor for subsequent
// Build calls: scans, filter/project pipelines, equi hash joins, LIMIT,
// UNION ALL, aggregations, sorts and DISTINCT run over column
// batches of the given size (<= 0 selects DefaultBatchSize). Off by
// default, so direct Builder users keep the row executor unless they opt
// in.
func (b *Builder) SetVectorize(batchSize int) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	b.vecSize = batchSize
}

// vecFrag is a compiled pipeline fragment: the pipeline plus the
// mapping from output column IDs to batch columns, the plan nodes it
// fused (the source's node first, stages[i] ↔ nodes[i+1]) and the
// source's input fragments, both for EXPLAIN ANALYZE attribution.
type vecFrag struct {
	spec  *vecSpec
	cols  []types.ColumnID
	nodes []plan.Node
	kids  []*vecFrag
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

// rowPos returns the decoded-row position of the given output column.
func (f *vecFrag) rowPos(id types.ColumnID) (int, bool) {
	for i, c := range f.cols {
		if c == id {
			return i, true
		}
	}
	return 0, false
}

// vecFragment compiles a batch source — a scan, an equi hash join, a
// LIMIT, a UNION ALL, an aggregation, an ORDER BY or a DISTINCT — with
// any interleaving of Filter and Project stages above it into a pipeline
// fragment. A nil fragment declines; the reason is set when n's inputs
// compiled and n itself did not, and on a UNION ALL that is no source.
func (b *Builder) vecFragment(n plan.Node) (*vecFrag, string) {
	var input plan.Node
	switch n := n.(type) {
	case *plan.Scan:
		tbl, ok := b.db.Table(n.Info.Name)
		if !ok {
			return nil, "" // the row path reports the error
		}
		scan := &scanSource{snap: tbl.SnapshotAt(b.ts), ords: n.Ords, batchSize: b.vecSize, gov: b.gov, met: b.met}
		return &vecFrag{spec: newVecSpec(scan, len(n.Ords)), cols: n.Cols, nodes: []plan.Node{n}}, ""
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
		input = n.Input
	case *plan.Project:
		input = n.Input
	default:
		return nil, ""
	}
	f, _ := b.vecFragment(input)
	if f == nil {
		return nil, ""
	}
	if reason := applyVecStage(f, n); reason != "" {
		return nil, reason
	}
	return f, ""
}

// vecJoin compiles a join of two batch sources into the batch hash join:
// an inner or left-outer join whose condition is purely equi-join
// conjuncts (col = col, one side each) with no residual. Its fragment
// has no stages yet; a Project or Filter above it is just a stage.
func (b *Builder) vecJoin(n *plan.Join) (*vecFrag, string) {
	lf, _ := b.vecFragment(n.Left)
	if lf == nil {
		return nil, ""
	}
	rf, _ := b.vecFragment(n.Right)
	if rf == nil {
		return nil, ""
	}
	conjuncts := plan.Conjuncts(n.Cond)
	if (n.Kind != plan.InnerJoin && n.Kind != plan.LeftOuterJoin) || len(conjuncts) == 0 {
		return nil, "expression"
	}
	var leftPos, rightPos []int
	for _, conj := range conjuncts {
		eq, ok := conj.(*plan.Bin)
		if !ok || eq.Op != "=" {
			return nil, "expression"
		}
		a, ok := eq.L.(*plan.ColRef)
		if !ok {
			return nil, "expression"
		}
		c, ok := eq.R.(*plan.ColRef)
		if !ok {
			return nil, "expression"
		}
		lc, rc := a, c
		lp, lok := lf.rowPos(lc.ID)
		rp, rok := rf.rowPos(rc.ID)
		if !lok || !rok {
			lc, rc = c, a
			lp, lok = lf.rowPos(lc.ID)
			rp, rok = rf.rowPos(rc.ID)
			if !lok || !rok {
				return nil, "expression"
			}
		}
		leftPos, rightPos = append(leftPos, lp), append(rightPos, rp)
	}
	// The build side is the optimizer's choice, as in the row join.
	js := &joinSource{
		buildLeft: n.BuildLeft,
		leftOuter: n.Kind == plan.LeftOuterJoin,
		batchSize: b.vecSize,
		gov:       b.gov,
		met:       b.met,
	}
	nl, nr := len(lf.spec.proj), len(rf.spec.proj)
	probe := lf
	if js.buildLeft {
		js.build, js.probe = lf.spec, rf.spec
		js.buildKey, js.probeKey = leftPos, rightPos
		js.probeOff, js.buildOff = nl, 0
		probe = rf
	} else {
		js.build, js.probe = rf.spec, lf.spec
		js.buildKey, js.probeKey = rightPos, leftPos
		js.probeOff, js.buildOff = 0, nl
	}
	for _, id := range probe.cols {
		js.probeTyps = append(js.probeTyps, b.ctx.Type(id))
	}
	js.keep = allTrue(nl + nr)
	js.store = allTrue(len(js.build.proj))
	cols := n.Columns()
	return &vecFrag{spec: newVecSpec(js, len(cols)), cols: cols, nodes: []plan.Node{n}, kids: []*vecFrag{lf, rf}}, ""
}

// vecLimit compiles a LIMIT over a batch source into a limit source,
// whose fragment passes the input's batch columns through, and a LIMIT
// over ORDER BY into the sort source the two fuse into.
func (b *Builder) vecLimit(n *plan.Limit) (*vecFrag, string) {
	if n.Offset < 0 {
		return nil, ""
	}
	if srt, ok := n.Input.(*plan.Sort); ok {
		return b.vecSort(srt, n)
	}
	in, _ := b.vecFragment(n.Input)
	if in == nil {
		return nil, ""
	}
	ls := &limitSource{in: in.spec, offset: n.Offset, count: n.Count}
	ls.scan, _ = in.spec.src.(*scanSource)
	return passFrag(ls, in, n), ""
}

// passFrag returns the fragment of a source run for n that passes its
// input fragment's batch columns through.
func passFrag(src batchSource, in *vecFrag, n plan.Node) *vecFrag {
	spec := newVecSpec(src, in.spec.numCols)
	spec.proj = slices.Clone(in.spec.proj)
	return &vecFrag{spec: spec, cols: in.cols, nodes: []plan.Node{n}, kids: []*vecFrag{in}}
}

// packer returns a row packer into vectors of the columns' plan types.
func (b *Builder) packer(cols []types.ColumnID) rowPacker {
	p := rowPacker{typs: make([]types.Type, len(cols)), size: b.vecSize, out: Batch{Cols: make([]types.Vec, len(cols))}}
	for i, id := range cols {
		p.typs[i] = b.ctx.Type(id)
	}
	return p
}

// vecUnion compiles a UNION ALL whose branches are batch sources with the
// union's column types into a union source. Any other union declines as
// "union", its own coverage gap, whatever its branches report.
func (b *Builder) vecUnion(n *plan.UnionAll) (*vecFrag, string) {
	us := &unionSource{out: Batch{Cols: make([]types.Vec, len(n.Cols))}}
	f := &vecFrag{spec: newVecSpec(us, len(n.Cols)), cols: n.Cols, nodes: []plan.Node{n}}
	for _, c := range n.Children {
		k, _ := b.vecFragment(c)
		if k == nil || len(k.cols) != len(n.Cols) {
			return nil, "union"
		}
		for i, id := range k.cols {
			if b.ctx.Type(id) != b.ctx.Type(n.Cols[i]) {
				return nil, "union"
			}
		}
		us.kids = append(us.kids, k.spec)
		f.kids = append(f.kids, k)
	}
	return f, ""
}

// applyVecStage compiles one Filter or Project node into a stage
// appended to the fragment, or returns the reason it cannot.
func applyVecStage(f *vecFrag, n plan.Node) string {
	switch n := n.(type) {
	case *plan.Filter:
		return applyVecFilter(f, n)
	case *plan.Project:
		return applyVecProject(f, n)
	}
	return "expression"
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

// applyVecFilter compiles one Filter node into a stage appended to the
// fragment: each conjunct becomes one expression kernel (compileVecExpr).
// When one has none the filter declines as "or" if its condition holds an
// OR tree, else as "expression". Over a join source, conjuncts that read
// build columns only fold into the join (joinSource.fold); the stage
// keeps the rest, and stays for EXPLAIN ANALYZE to count the filter's
// rows even when it keeps none. Over a scan, the conjuncts add their
// zone-map ranges to the scan's (zoneRanges).
func applyVecFilter(f *vecFrag, n *plan.Filter) string {
	var st vecStage
	js, _ := f.spec.src.(*joinSource)
	conjs := plan.Conjuncts(n.Cond)
	for _, conj := range conjs {
		ex, t, ok := f.compileVecExpr(conj)
		if !ok || !typedAs(conj, t, types.TBool) {
			if hasOr(n.Cond) {
				return "or"
			}
			return "expression"
		}
		cols := f.exprCols(conj)
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
	f.nodes = append(f.nodes, n)
	return ""
}

// hasOr reports whether the expression contains an OR node.
func hasOr(e plan.Expr) bool {
	found := false
	plan.RewriteExpr(e, func(x plan.Expr) plan.Expr {
		if b, ok := x.(*plan.Bin); ok && b.Op == "OR" {
			found = true
		}
		return x
	})
	return found
}

// applyVecProject compiles one Project node — a column shuffle plus
// total computed expressions — into a stage appended to the fragment.
func applyVecProject(f *vecFrag, n *plan.Project) string {
	var st vecStage
	proj := make([]int, len(n.Cols))
	cols := make([]types.ColumnID, len(n.Cols))
	for i, c := range n.Cols {
		if cr, ok := c.Expr.(*plan.ColRef); ok {
			bc, ok := f.batchCol(cr.ID)
			if !ok {
				return "expression"
			}
			proj[i], cols[i] = bc, c.ID
			continue
		}
		ex, _, ok := f.compileVecExpr(c.Expr)
		if !ok {
			return "expression"
		}
		f.spec.reads = append(f.spec.reads, f.exprCols(c.Expr)...)
		dst := f.spec.numCols
		f.spec.numCols++
		st.exprs = append(st.exprs, vecCompute{expr: ex, dst: dst})
		proj[i], cols[i] = dst, c.ID
	}
	f.spec.proj, f.cols = proj, cols
	f.spec.stages = append(f.spec.stages, st)
	f.nodes = append(f.nodes, n)
	return ""
}

// attachVecStats finishes a compiled fragment, recursively through its
// source's inputs: it counts a LIMIT fused into a sort source, and under
// EXPLAIN ANALYZE stamps every fused node mode=vector and has each stage
// and source record its work through its stats. The top node of the
// Build caller's fragment (top) is counted by the statIter around the
// row adapter, so its rows are not counted again — but a source records
// its build size and memory either way. A Filter that folded conjuncts
// into the join below notes folded=<folded>/<conjuncts>.
func (b *Builder) attachVecStats(f *vecFrag, top bool) {
	if s, ok := f.spec.src.(*sortSource); ok && s.lim != nil {
		b.noteFusion(s.srt, s.lim, "vector")
	}
	for i, node := range f.nodes {
		if !b.analyze {
			break
		}
		st := b.nodeStats(node)
		st.Mode = "vector"
		counted := !top || i < len(f.nodes)-1
		if i == 0 {
			f.spec.src.(interface{ attach(*OpStats, bool) }).attach(st, counted)
			continue
		}
		stage := &f.spec.stages[i-1]
		if stage.folded > 0 {
			st.Note = fmt.Sprintf("folded=%d/%d", stage.folded, stage.folded+len(stage.filt))
		}
		if counted {
			stage.stats = st
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

// vecGroupBy compiles an aggregation over a batch source into a group
// source. Aggregates have kernels when they are plain (non-DISTINCT) and
// over bare columns; SUM/AVG additionally need a numeric argument, so
// the typed accumulator can never hit the row path's "SUM/AVG on <type>"
// error — the decline leaves the row path to raise it exactly as before.
// The group source's vectors take the plan's column types, which for
// these aggregates are the types finalize returns.
func (b *Builder) vecGroupBy(n *plan.GroupBy) (*vecFrag, string) {
	f, _ := b.vecFragment(n.Input)
	if f == nil {
		return nil, ""
	}
	for _, a := range n.Aggs {
		if a.Distinct {
			return nil, "distinct"
		}
	}
	va := &vecAggSpec{spec: f.spec, scalarAgg: len(n.GroupCols) == 0}
	for _, g := range n.GroupCols {
		bc, ok := f.batchCol(g)
		if !ok {
			return nil, "expression"
		}
		va.groupCols = append(va.groupCols, bc)
	}
	for _, a := range n.Aggs {
		col := 0
		if !a.Star {
			cr, ok := a.Arg.(*plan.ColRef)
			if !ok {
				return nil, "expression"
			}
			if a.Op == plan.AggSum || a.Op == plan.AggAvg {
				switch cr.Typ {
				case types.TInt, types.TFloat, types.TDecimal:
				default:
					return nil, "expression"
				}
			}
			bc, ok := f.batchCol(cr.ID)
			if !ok {
				return nil, "expression"
			}
			col = bc
		}
		va.aggs = append(va.aggs, groupSpec{op: a.Op, star: a.Star, typ: b.ctx.Type(a.ID)})
		va.argCols = append(va.argCols, col)
	}
	// The fold reads the group and argument columns only: a count(*)
	// gathers no join build column at all.
	reads := slices.Clone(va.groupCols)
	for i, a := range va.aggs {
		if !a.star {
			reads = append(reads, va.argCols[i])
		}
	}
	f.spec.need(reads)
	cols := n.Columns()
	g := &groupSource{va: va, gov: b.gov, rowPacker: b.packer(cols)}
	return &vecFrag{spec: newVecSpec(g, len(cols)), cols: cols, nodes: []plan.Node{n}, kids: []*vecFrag{f}}, ""
}

// noteFallback records that the batch compiler declined n for the given
// reason: in the per-reason exec.vec_fallbacks counter, and under
// analyze in the node's OpStats for EXPLAIN to render. A builder that
// is not vectorizing declines nothing.
func (b *Builder) noteFallback(n plan.Node, reason string) {
	if reason == "" || b.vecSize == 0 {
		return
	}
	if b.analyze {
		b.nodeStats(n).Fallback = reason
	}
	if b.met == nil {
		return
	}
	switch reason {
	case "expression":
		b.met.VecFallbackExpression.Inc()
	case "or":
		b.met.VecFallbackOr.Inc()
	case "union":
		b.met.VecFallbackUnion.Inc()
	case "distinct":
		b.met.VecFallbackDistinct.Inc()
	}
}
