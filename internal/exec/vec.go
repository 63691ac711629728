package exec

import (
	"strings"

	"vdm/internal/decimal"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Vectorized batch execution. A vecSpec is a fused pipeline fragment —
// a scan with any interleaving of filter and project stages — that
// materializes fixed-size column batches straight from storage
// (FillVecs: typed vectors, raw dictionary codes, null bitmaps) and
// narrows them with a selection vector instead of copying survivors.
// Filter kernels run one tight loop per conjunct per batch; string
// comparisons translate the literal once per batch by memoizing the
// comparison outcome per dictionary code; OR trees evaluate one
// selection vector per branch and merge them by ordered union; computed
// projections run expression kernels (vecexpr.go) that publish new batch
// columns. Governance is checked once per batch (the same granularity as
// the row path's govStride), and the row-iterator adapter (vecRowsIter)
// decodes batches back into rows so every downstream operator — and
// every result — is row- and order-identical to the classic executor.
//
// Dictionary codes are only stable within one batch (a concurrent delta
// merge re-encodes delta rows), so all cross-batch state keys on decoded
// values or Value.AppendKey bytes, and per-code memos are epoch-bumped
// every batch.

// DefaultBatchSize is the rows per column batch when the caller does not
// configure one. It matches the storage zone-map block size, so a batch
// never spans more than two zones.
const DefaultBatchSize = 1024

// Batch is a fixed-size horizontal slice of a table: one typed vector
// per projected column plus an optional selection vector produced by
// filter kernels. When HasSel is set, only the row indexes in Sel are
// live; otherwise all N rows are.
type Batch struct {
	// N is the number of rows materialized in each column vector.
	N int
	// Sel lists the live row indexes in ascending order; valid only
	// when HasSel is true.
	Sel []int32
	// HasSel reports whether a filter narrowed the batch. It is
	// distinct from Sel being empty: a fully-filtered batch has
	// HasSel=true and len(Sel)==0.
	HasSel bool
	// Cols holds one vector per column: the storage-filled columns
	// first, then any computed projection columns.
	Cols []types.Vec
}

// NumRows returns the number of live rows.
func (b *Batch) NumRows() int {
	if b.HasSel {
		return len(b.Sel)
	}
	return b.N
}

// vecStage is one fused pipeline stage above the scan. A Filter node
// compiles to a stage with conjunct kernels; a Project node compiles to
// a stage with computed-column kernels (bare column shuffles need no
// stage work and compile to an empty stage kept for EXPLAIN ANALYZE
// attribution). stages[i] corresponds to nodes[i+1] of the fragment.
type vecStage struct {
	filt  []vecCmp     // filter conjuncts; narrow the selection
	exprs []vecCompute // computed projections; publish batch columns
	stats *OpStats     // per-stage EXPLAIN ANALYZE attribution (nil off)
}

// vecSpec is the immutable description of a batch pipeline fragment;
// the mutable state of one sweep over it lives in vecScratch.
type vecSpec struct {
	snap    *storage.Snapshot
	ords    []int              // storage ordinals materialized per batch
	ranges  []storage.ColRange // zone-map pruning, as the row path
	stages  []vecStage         // filter/project stages in plan order
	proj    []int              // batch column per output row position
	numCols int                // len(ords) + computed columns
	nMemos  int                // dictionary-code memo tables needed
	nBufs   int                // scratch selection buffers needed
	nSlots  int                // scratch expression vectors needed
	gov     *Governance
	met     *Metrics

	// scanStats attributes batch fills to the Scan node under EXPLAIN
	// ANALYZE (nil when off or when the scan is the operator statIter
	// wraps).
	scanStats *OpStats
}

// hasFilter reports whether the fragment filters rows.
func (s *vecSpec) hasFilter() bool {
	for i := range s.stages {
		if len(s.stages[i].filt) > 0 {
			return true
		}
	}
	return false
}

// statAdd accumulates per-stage analyze counters.
func statAdd(st *OpStats, rows int64) {
	if st == nil {
		return
	}
	st.Rows += rows
	st.Nexts++
}

// vecScratch is one sweep's reusable batch state: the visible-position
// buffer, the column batch, selection-vector ping-pong buffers, the
// per-conjunct dictionary-code memo tables, and the expression kernels'
// output vectors and selection scratch.
type vecScratch struct {
	idx        []int
	batch      Batch
	ptrs       []*types.Vec
	allIdx     []int32
	selA, selB []int32
	memos      []codeMemo
	selBufs    [][]int32   // OR-branch and CASE-arm selection scratch
	exprVecs   []types.Vec // expression kernel outputs, by slot
	keyBuf     []byte      // AppendKeyAt composite-key scratch
}

// newVecScratch sizes scratch state for the spec's batch width.
func newVecScratch(s *vecSpec) *vecScratch {
	sc := &vecScratch{}
	sc.batch.Cols = make([]types.Vec, s.numCols)
	sc.ptrs = make([]*types.Vec, len(s.ords))
	for i := range sc.ptrs {
		sc.ptrs[i] = &sc.batch.Cols[i]
	}
	sc.memos = make([]codeMemo, s.nMemos)
	sc.selBufs = make([][]int32, s.nBufs)
	sc.exprVecs = make([]types.Vec, s.nSlots)
	return sc
}

// liveAll returns the identity selection [0..n), growing the shared
// buffer as needed.
func (sc *vecScratch) liveAll(n int) []int32 {
	for len(sc.allIdx) < n {
		sc.allIdx = append(sc.allIdx, int32(len(sc.allIdx)))
	}
	return sc.allIdx[:n]
}

// fill materializes the visible rows of position range [lo, hi) into the
// scratch batch and runs the stage kernels: filters narrow the selection
// vector, computed projections publish new batch columns. It checks
// governance once per batch.
func (s *vecSpec) fill(lo, hi int, sc *vecScratch) error {
	if err := s.gov.Err(); err != nil {
		return err
	}
	sc.idx = s.snap.CollectVisible(lo, hi, s.ranges, sc.idx[:0])
	b := &sc.batch
	b.N = len(sc.idx)
	b.Sel, b.HasSel = nil, false
	if b.N == 0 {
		return nil
	}
	s.snap.FillVecs(sc.idx, s.ords, sc.ptrs)
	if s.met != nil {
		s.met.VecBatches.Inc()
	}
	statAdd(s.scanStats, int64(b.N))
	cur := sc.liveAll(b.N)
	filtered := false
	flip := 0
	for si := range s.stages {
		st := &s.stages[si]
		for ci := range st.filt {
			var dst []int32
			if flip%2 == 0 {
				dst = sc.selA[:0]
			} else {
				dst = sc.selB[:0]
			}
			dst = st.filt[ci].run(b, cur, dst, sc)
			if flip%2 == 0 {
				sc.selA = dst
			} else {
				sc.selB = dst
			}
			cur = dst
			flip++
			filtered = true
			if len(cur) == 0 {
				break
			}
		}
		for _, ce := range st.exprs {
			res := ce.expr.eval(b, cur, sc)
			b.Cols[ce.dst] = *res
		}
		statAdd(st.stats, int64(len(cur)))
	}
	if filtered {
		b.Sel, b.HasSel = cur, true
	}
	return nil
}

// decodeRows boxes the batch's live rows in selection order, appending
// to dst. Rows share one flat backing array per batch.
func (s *vecSpec) decodeRows(sc *vecScratch, dst []types.Row) []types.Row {
	b := &sc.batch
	n := b.NumRows()
	if n == 0 {
		return dst
	}
	w := len(s.proj)
	flat := make(types.Row, n*w)
	for k, ci := range s.proj {
		v := &b.Cols[ci]
		if b.HasSel {
			for i, ri := range b.Sel {
				flat[i*w+k] = v.Value(int(ri))
			}
		} else {
			for i := 0; i < n; i++ {
				flat[i*w+k] = v.Value(i)
			}
		}
	}
	for i := 0; i < n; i++ {
		dst = append(dst, flat[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// --- filter kernels -----------------------------------------------------

// Kernel kinds. The compiler (vecbuild.go) picks the kind from the
// statically-known column/literal type pair, replicating types.Compare's
// promotion rules exactly: same-type ints/dates/bools compare as int64,
// same-type decimals compare coefficient-wise when scales match (else
// decimal.Cmp), strings compare per dictionary code with a memo, and any
// other numeric mix falls back to float64 — exactly the types.Compare
// ladder. OR trees (vcOr) evaluate each branch's conjunct chain into its
// own selection vector and merge the survivors by ordered, deduplicating
// union; arbitrary total boolean expressions (vcExpr) run the expression
// kernels and keep rows with a non-NULL TRUE result.
const (
	vcNone   uint8 = iota // NULL literal: comparison is NULL for every row
	vcI64                 // int/date/bool column vs same-kind literal
	vcF64                 // mixed numeric column vs numeric literal
	vcDec                 // decimal column vs decimal literal
	vcStr                 // string column vs string literal
	vcIn                  // col [NOT] IN (const, ...)
	vcIsNull              // col IS [NOT] NULL
	vcOr                  // OR tree: per-branch selections, ordered union
	vcExpr                // total boolean expression kernel
)

// vecCmp is one compiled filter conjunct.
type vecCmp struct {
	kind uint8
	col  int // batch column index
	// want maps the comparison sign (-1,0,+1 → index 0,1,2) to keep.
	want        [3]bool
	i64         int64
	f64         float64
	dec         decimal.Decimal
	str         string
	list        []types.Value // IN: non-NULL constant elements
	sawNullElem bool          // IN: list contained a NULL
	not         bool          // IN / IS NULL negation
	memo        int           // vcStr: dictionary-code memo table index
	branches    [][]vecCmp    // vcOr: conjunct chain per branch
	bufBase     int           // vcOr: four scratch selection buffers
	expr        vecExpr       // vcExpr: compiled boolean kernel
}

// codeMemo caches a per-dictionary-code outcome for one conjunct within
// one batch. Entries are valid only when their epoch matches cur; the
// epoch is bumped every batch because combined dictionary codes are not
// stable across batches.
type codeMemo struct {
	val   []int8
	epoch []uint32
	cur   uint32
}

// next starts a new batch epoch, growing the tables to cover size codes.
func (m *codeMemo) next(size int) {
	if size > len(m.val) {
		nv := make([]int8, size)
		copy(nv, m.val)
		m.val = nv
		ne := make([]uint32, size)
		copy(ne, m.epoch)
		m.epoch = ne
	}
	m.cur++
	if m.cur == 0 { // wrapped: stale epochs could collide, reset
		for i := range m.epoch {
			m.epoch[i] = 0
		}
		m.cur = 1
	}
}

func signIdx(c int) int8 {
	switch {
	case c < 0:
		return 0
	case c > 0:
		return 2
	}
	return 1
}

// mergeUnion appends the ordered, deduplicating union of two ascending
// selection vectors to dst.
func mergeUnion(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// run applies the conjunct to the rows listed in `in`, appending
// survivors to out. NULL comparison results drop the row, which is
// exactly the row filter's three-valued semantics: both FALSE and NULL
// conjuncts drop a row, so intersecting selection vectors conjunct by
// conjunct equals evaluating the AND tree — and unioning per-branch
// selections equals evaluating the OR tree, because a row survives an OR
// iff at least one branch is non-NULL TRUE.
func (c *vecCmp) run(b *Batch, in, out []int32, sc *vecScratch) []int32 {
	switch c.kind {
	case vcOr:
		return c.runOr(b, in, out, sc)
	case vcExpr:
		v := c.expr.eval(b, in, sc)
		hasNulls := len(v.Nulls) > 0
		for _, i := range in {
			if hasNulls && v.NullAt(int(i)) {
				continue
			}
			if v.I64[i] != 0 {
				out = append(out, i)
			}
		}
		return out
	}
	v := &b.Cols[c.col]
	hasNulls := len(v.Nulls) > 0
	switch c.kind {
	case vcNone:
		// cmp with NULL literal is NULL for every row: keep nothing.
	case vcI64:
		lit := c.i64
		for _, i := range in {
			if hasNulls && v.NullAt(int(i)) {
				continue
			}
			x := v.I64[i]
			var s int8
			switch {
			case x < lit:
				s = 0
			case x > lit:
				s = 2
			default:
				s = 1
			}
			if c.want[s] {
				out = append(out, i)
			}
		}
	case vcDec:
		lc, ls := c.dec.Coef, c.dec.Scale
		for _, i := range in {
			if hasNulls && v.NullAt(int(i)) {
				continue
			}
			var s int8
			if v.Scale[i] == ls {
				// Equal scales: decimal.Cmp aligns to raw coefficients,
				// so a plain coefficient compare is identical.
				x := v.I64[i]
				switch {
				case x < lc:
					s = 0
				case x > lc:
					s = 2
				default:
					s = 1
				}
			} else {
				s = signIdx((decimal.Decimal{Coef: v.I64[i], Scale: v.Scale[i]}).Cmp(c.dec))
			}
			if c.want[s] {
				out = append(out, i)
			}
		}
	case vcF64:
		lit := c.f64
		cmpF := func(i int32, x float64) {
			var s int8
			switch {
			case x < lit:
				s = 0
			case x > lit:
				s = 2
			default:
				s = 1
			}
			if c.want[s] {
				out = append(out, i)
			}
		}
		switch v.Typ {
		case types.TFloat:
			for _, i := range in {
				if hasNulls && v.NullAt(int(i)) {
					continue
				}
				cmpF(i, v.F64[i])
			}
		case types.TDecimal:
			for _, i := range in {
				if hasNulls && v.NullAt(int(i)) {
					continue
				}
				cmpF(i, (decimal.Decimal{Coef: v.I64[i], Scale: v.Scale[i]}).Float64())
			}
		default: // TInt, TDate
			for _, i := range in {
				if hasNulls && v.NullAt(int(i)) {
					continue
				}
				cmpF(i, float64(v.I64[i]))
			}
		}
	case vcStr:
		m := &sc.memos[c.memo]
		m.next(v.Dict.Size())
		for _, i := range in {
			if hasNulls && v.NullAt(int(i)) {
				continue
			}
			code := v.Codes[i]
			s := m.val[code]
			if m.epoch[code] != m.cur {
				s = signIdx(strings.Compare(v.Dict.Decode(code), c.str))
				m.val[code], m.epoch[code] = s, m.cur
			}
			if c.want[s] {
				out = append(out, i)
			}
		}
	case vcIn:
		for _, i := range in {
			val := v.Value(int(i))
			if val.IsNull() {
				continue // NULL IN (...) is NULL: dropped
			}
			matched := false
			for _, x := range c.list {
				if types.Equal(val, x) {
					matched = true
					break
				}
			}
			var keep bool
			switch {
			case matched:
				keep = !c.not
			case c.sawNullElem:
				keep = false // no match but a NULL element: NULL, dropped
			default:
				keep = c.not
			}
			if keep {
				out = append(out, i)
			}
		}
	case vcIsNull:
		for _, i := range in {
			if v.NullAt(int(i)) != c.not {
				out = append(out, i)
			}
		}
	}
	return out
}

// runOr evaluates each branch's conjunct chain over the full input
// selection and merges the per-branch survivors by ordered union.
// Re-evaluating a row in several branches is harmless because admitted
// kernels are total. Uses four scratch buffers: the union accumulator
// ping-pong pair, and the branch-chain ping-pong pair (nested OR trees
// allocate their own quadruple).
func (c *vecCmp) runOr(b *Batch, in, out []int32, sc *vecScratch) []int32 {
	accIdx, otherIdx := c.bufBase, c.bufBase+1
	acc := sc.selBufs[accIdx][:0]
	sc.selBufs[accIdx] = acc
	for bi := range c.branches {
		src := in
		for ki := range c.branches[bi] {
			dstIdx := c.bufBase + 2 + ki%2
			dst := c.branches[bi][ki].run(b, src, sc.selBufs[dstIdx][:0], sc)
			sc.selBufs[dstIdx] = dst
			src = dst
			if len(src) == 0 {
				break
			}
		}
		if len(src) == 0 {
			continue
		}
		merged := mergeUnion(sc.selBufs[otherIdx][:0], sc.selBufs[accIdx], src)
		sc.selBufs[otherIdx] = merged
		accIdx, otherIdx = otherIdx, accIdx
	}
	return append(out, sc.selBufs[accIdx]...)
}

// --- row adapter --------------------------------------------------------

// vecRowsIter adapts a batch pipeline fragment to the row Iterator
// contract: it fills batches lazily (so LIMIT stops reading early) and
// emits decoded rows in position order — exactly the serial scan order.
type vecRowsIter struct {
	spec      *vecSpec
	batchSize int

	sc         *vecScratch
	unpin      func()
	total, pos int
	rows       []types.Row
	idx        int
}

func (s *vecRowsIter) Open() error {
	s.unpin = s.spec.snap.Pin()
	if err := s.spec.gov.point(PointScan); err != nil {
		return err
	}
	s.total = s.spec.snap.NumRowVersions()
	s.pos, s.idx, s.rows = 0, 0, nil
	s.sc = newVecScratch(s.spec)
	if s.spec.met != nil {
		s.spec.met.VecPipelines.Inc()
	}
	return nil
}

func (s *vecRowsIter) Next() (types.Row, bool, error) {
	for s.idx >= len(s.rows) {
		if s.pos >= s.total {
			return nil, false, nil
		}
		hi := s.pos + s.batchSize
		if err := s.spec.fill(s.pos, hi, s.sc); err != nil {
			return nil, false, err
		}
		s.pos = hi
		s.rows = s.spec.decodeRows(s.sc, s.rows[:0])
		s.idx = 0
	}
	row := s.rows[s.idx]
	s.idx++
	return row, true, nil
}

func (s *vecRowsIter) Close() {
	if s.unpin != nil {
		s.unpin()
		s.unpin = nil
	}
	s.rows = nil
}
