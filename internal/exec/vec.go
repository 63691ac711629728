package exec

import (
	"time"

	"vdm/internal/storage"
	"vdm/internal/types"
)

// Vectorized batch execution. Every batch operator is a batch source: a
// compiled subtree that hands out column batches through one pull
// contract (open / next / close). The snapshot scan (scanSource) fills
// typed vectors straight from storage (FillVecs); the equi hash join
// (vecjoin.go), LIMIT/OFFSET, UNION ALL and DISTINCT (vecset.go) pass
// their inputs' vectors on, narrowed or regrouped; aggregation
// (vecagg.go) and ORDER BY (vecsort.go) hand out their materialized
// result packed into typed vectors (rowPacker). A pipeline (vecSpec)
// runs any interleaving of filter and project stages over any of them,
// narrowing batches with a selection vector instead of copying
// survivors. Pipelines are sources themselves, so a compiled plan leaves
// batch mode only at the one row adapter (vecRowsIter) above its root.
//
// Filter and project stages run the expression kernels (vecexpr.go):
// a filter narrows the selection conjunct by conjunct to the rows whose
// kernel result is non-NULL TRUE, and a computed projection publishes a
// new batch column. Comparisons with a literal read it in place, and
// string comparisons and IN lists decide once per dictionary code per
// dictionary view. Governance is checked once per batch (the same
// granularity as the row path's govStride), and the row-iterator adapter
// boxes only the rows it hands out, a small chunk at a time, so every
// result is row- and order-identical to the classic executor.
//
// Storage dictionary codes are only stable within one DictView (a
// concurrent delta merge re-encodes delta rows), so state that outlives
// a view keys on decoded values or Value.AppendKey bytes, and per-code
// memos (epochMemo) start a new epoch whenever a batch's view is not
// Same as the one they memoized under. A join's build side re-encodes
// its string columns into a build-local dictionary, whose codes are
// stable for the join's lifetime.

// DefaultBatchSize is the rows per column batch when the caller does not
// configure one. It matches the storage zone-map block size, so a batch
// never spans more than two zones.
const DefaultBatchSize = 1024

// Batch is a fixed-size horizontal slice of a relation: one typed vector
// per column plus an optional selection vector produced by filter
// kernels or a join's probe. When HasSel is set, only the row indexes in
// Sel are live; otherwise all N rows are.
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
	// Cols holds one vector per column: the source's columns first,
	// then any computed projection columns.
	Cols []types.Vec
}

// NumRows returns the number of live rows.
func (b *Batch) NumRows() int {
	if b.HasSel {
		return len(b.Sel)
	}
	return b.N
}

// iota32 returns the identity selection [0, n), growing buf as needed.
// A buffer that has to grow again grows straight to a default batch, so
// the doubling batches of a LIMIT's scan sweep (startAt) do not regrow
// it each time.
func iota32(buf *[]int32, n int) []int32 {
	if len(*buf) < n {
		size := n
		if len(*buf) > 0 {
			size = max(n, DefaultBatchSize)
		}
		*buf = make([]int32, size)
		for i := range *buf {
			(*buf)[i] = int32(i)
		}
	}
	return (*buf)[:n]
}

// liveRows returns b's live row indexes in ascending order: its
// selection vector, or the identity drawn from buf.
func liveRows(b *Batch, buf *[]int32) []int32 {
	if b.HasSel {
		return b.Sel
	}
	return iota32(buf, b.N)
}

// batchSource is a compiled subtree that hands out column batches: the
// one contract every batch operator consumes. next returns nil at the
// end of the stream; a returned batch and its vectors stay valid until
// the following next call. close is idempotent and safe after a failed
// or missing open, so consumers always close every source they hold.
type batchSource interface {
	open() error
	next() (*Batch, error)
	close()
}

// forEachBatch opens src, hands every batch to fn, and closes src: the
// one drain loop of the blocking batch sources.
func forEachBatch(src batchSource, fn func(*Batch) error) error {
	defer src.close()
	if err := src.open(); err != nil {
		return err
	}
	for {
		b, err := src.next()
		if err != nil || b == nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// srcStats attributes a batch source's work to its plan node under
// EXPLAIN ANALYZE (stats nil when off). A source records its build size
// and memory whenever it has stats; its rows, open time and end of
// stream only when countRows, since statIter counts those for the node it
// wraps.
type srcStats struct {
	stats     *OpStats
	countRows bool
}

func (s *srcStats) attach(st *OpStats, count bool) { s.stats, s.countRows = st, count }

// emit counts an output batch, or a nil one as the end of the
// stream, and returns it.
func (s *srcStats) emit(b *Batch) *Batch {
	if s.countRows {
		if b == nil {
			statDrained(s.stats)
		} else {
			statAdd(s.stats, int64(b.NumRows()))
		}
	}
	return b
}

// timeOpen starts timing an open the source counts itself; the returned
// func, deferred, records the time.
func (s *srcStats) timeOpen() func() {
	if s.stats == nil || !s.countRows {
		return func() {}
	}
	t0 := time.Now()
	return func() { s.stats.OpenNs += time.Since(t0).Nanoseconds() }
}

// built records the rows a materializing source holds.
func (s *srcStats) built(rows []types.Row) {
	if s.stats != nil {
		s.stats.BuildRows, s.stats.BuildBytes = rowSetBytes(rows)
	}
}

// release records acct's bytes as the node's memory and releases them.
// A second close finds the account empty and keeps the figure.
func (s *srcStats) release(acct *memAcct) {
	if n := acct.bytes(); s.stats != nil && n > 0 {
		s.stats.MemBytes = n
	}
	acct.close()
}

// rowPacker hands out materialized rows — finalized groups, a sorted
// page — as batches of at most size rows, packed into vectors of the
// plan's column types.
type rowPacker struct {
	typs []types.Type
	size int
	out  Batch
}

// pack packs the rows from *pos on into the next batch, advancing *pos,
// or returns nil when none are left.
func (p *rowPacker) pack(rows []types.Row, pos *int) *Batch {
	n := min(p.size, len(rows)-*pos)
	if n <= 0 {
		return nil
	}
	chunk := rows[*pos : *pos+n]
	for c, t := range p.typs {
		v := &p.out.Cols[c]
		resetComputed(v, t, n)
		for i, row := range chunk {
			setVecValue(v, i, row[c])
		}
	}
	*pos += n
	p.out.N = n
	return &p.out
}

// --- snapshot scan ------------------------------------------------------

// scanSource reads the visible rows of successive storage position
// ranges into typed vectors — one CollectVisible and one FillVecs per
// batch, skipping zone-map blocks the filters above rule out. Batches
// carry no selection vector and arrive in storage order, exactly the
// row scan's order. It fires PointScan on open and checks governance
// once per batch. A LIMIT above can start the sweep small (startAt).
type scanSource struct {
	snap      *storage.Snapshot
	ords      []int              // storage ordinals materialized per batch
	ranges    []storage.ColRange // zone-map pruning, as the row path
	batchSize int
	gov       *Governance
	met       *Metrics
	srcStats

	unpin      func()
	pos, total int
	size       int // storage positions the next batch reads
	idx        []int
	batch      Batch
	ptrs       []*types.Vec
}

func (s *scanSource) open() error {
	s.unpin = s.snap.Pin()
	if s.ptrs == nil {
		s.batch.Cols = make([]types.Vec, len(s.ords))
		s.ptrs = make([]*types.Vec, len(s.ords))
		for i := range s.ptrs {
			s.ptrs[i] = &s.batch.Cols[i]
		}
	}
	s.pos, s.total, s.size = 0, s.snap.NumRowVersions(), s.batchSize
	if n := min(s.batchSize, s.total); cap(s.idx) < n {
		s.idx = make([]int, 0, n) // a batch's positions never outgrow it
	}
	return s.gov.point(PointScan)
}

// startAt makes the open sweep read n storage positions first and twice
// as many per batch after that, up to the batch size: a LIMIT needing n
// rows fills about n when its filters pass them, and still reaches full
// batches after a few when they do not.
func (s *scanSource) startAt(n int64) {
	s.size = int(max(1, min(n, int64(s.batchSize))))
}

func (s *scanSource) next() (*Batch, error) {
	for s.pos < s.total {
		if err := s.gov.Err(); err != nil {
			return nil, err
		}
		lo := s.pos
		s.idx, s.pos = s.snap.CollectVisible(lo, lo+s.size, s.ranges, s.idx[:0])
		s.size = min(2*s.size, s.batchSize)
		if len(s.idx) == 0 {
			continue
		}
		s.snap.FillVecs(s.idx, s.ords, s.ptrs)
		if s.met != nil {
			s.met.VecBatches.Inc()
		}
		s.batch.N = len(s.idx)
		return s.emit(&s.batch), nil
	}
	return s.emit(nil), nil
}

func (s *scanSource) close() {
	if s.unpin != nil {
		s.unpin()
		s.unpin = nil
	}
}

// --- LIMIT and UNION ALL -------------------------------------------------

// limitSource is LIMIT/OFFSET over a batch source: it narrows each input
// batch's selection to the rows inside the offset/count window and stops
// pulling once the page is full, as the row limit does. Its
// batches are the input's, under the narrowed selection. When a scan
// sits right under the input's stages, open starts that scan at
// offset+count rows (scanSource.startAt).
type limitSource struct {
	in            *vecSpec
	offset, count int64       // count < 0: no limit
	scan          *scanSource // the scan under in's stages, if any
	srcStats

	skipped, emitted int64
	all              []int32
	out              Batch
}

func (l *limitSource) open() error {
	l.skipped, l.emitted = 0, 0
	if err := l.in.open(); err != nil {
		return err
	}
	if end := pageEnd(l.offset, l.count); l.scan != nil && end >= 0 {
		l.scan.startAt(end)
	}
	return nil
}

func (l *limitSource) next() (*Batch, error) {
	for l.count < 0 || l.emitted < l.count || l.skipped < l.offset {
		b, err := l.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		live := liveRows(b, &l.all)
		skip := min(l.offset-l.skipped, int64(len(live)))
		l.skipped += skip
		live = live[skip:]
		if l.count >= 0 {
			live = live[:min(int64(len(live)), l.count-l.emitted)]
		}
		if len(live) == 0 {
			continue
		}
		l.emitted += int64(len(live))
		l.out = Batch{N: b.N, Sel: live, HasSel: true, Cols: b.Cols}
		return l.emit(&l.out), nil
	}
	return l.emit(nil), nil
}

func (l *limitSource) close() { l.in.close() }

// need passes the consumer's columns, batch columns of the input, on.
func (l *limitSource) need(out []bool) {
	var cols []int
	for c, o := range out {
		if o {
			cols = append(cols, c)
		}
	}
	l.in.need(cols)
}

// unionSource is UNION ALL over batch sources: it drains its branches in
// branch order, the row union's emission order. Each branch batch is
// published with its output vectors at the union's column positions —
// header copies, no data moves — and its selection passed through.
// Branches open together, as the row union's do.
type unionSource struct {
	kids []*vecSpec
	srcStats

	cur int
	out Batch
}

func (u *unionSource) open() error {
	u.cur = 0
	for _, k := range u.kids {
		if err := k.open(); err != nil {
			return err
		}
	}
	return nil
}

func (u *unionSource) next() (*Batch, error) {
	for ; u.cur < len(u.kids); u.cur++ {
		k := u.kids[u.cur]
		b, err := k.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			continue
		}
		for i, ci := range k.proj {
			u.out.Cols[i] = b.Cols[ci]
		}
		u.out.N, u.out.Sel, u.out.HasSel = b.N, b.Sel, b.HasSel
		return u.emit(&u.out), nil
	}
	return u.emit(nil), nil
}

func (u *unionSource) close() {
	for _, k := range u.kids {
		k.close()
	}
}

// need passes the consumer's union positions on to every branch, as the
// branch's own output columns.
func (u *unionSource) need(out []bool) {
	for _, k := range u.kids {
		var cols []int
		for i, o := range out {
			if o {
				cols = append(cols, k.proj[i])
			}
		}
		k.need(cols)
	}
}

// --- pipeline -----------------------------------------------------------

// vecStage is one fused pipeline stage above the source. A Filter node
// compiles to a stage with conjunct kernels; a Project node compiles to
// a stage with computed-column kernels (bare column shuffles need no
// stage work and compile to an empty stage kept for EXPLAIN ANALYZE
// attribution). stages[i] corresponds to nodes[i+1] of the fragment.
type vecStage struct {
	filt   []vecExpr    // filter conjuncts; narrow the selection
	folded int          // the Filter's conjuncts folded into the join below
	exprs  []vecCompute // computed projections; publish batch columns
	stats  *OpStats     // per-stage EXPLAIN ANALYZE attribution (nil off)
}

// vecSpec is a pipeline: a batch source with filter/project stages run
// over its batches. It is itself a batch source. The compiled fields are
// immutable; the mutable state of one sweep lives in sc.
type vecSpec struct {
	src     batchSource
	width   int        // columns of the source's batches
	stages  []vecStage // filter/project stages in plan order
	proj    []int      // batch column per output row position
	reads   []int      // batch columns the stages' kernels read
	numCols int        // width + computed columns
	nMemos  int        // dictionary-code memo tables needed
	nBufs   int        // scratch selection buffers needed
	nSlots  int        // scratch expression vectors needed

	sc *vecScratch
}

// need tells the pipeline which of its batch columns its consumer reads.
// With the columns its own stages read, that is what its source must
// produce: a join source gathers only those of its build columns, and
// every source passes the narrowing on to its inputs. A pipeline that is
// never narrowed produces every column.
func (s *vecSpec) need(cols []int) {
	src, ok := s.src.(interface{ need(out []bool) })
	if !ok {
		return
	}
	out := make([]bool, s.width)
	for _, cs := range [][]int{cols, s.reads} {
		for _, c := range cs {
			if c < s.width {
				out[c] = true
			}
		}
	}
	src.need(out)
}

// statAdd accumulates per-stage analyze counters.
func statAdd(st *OpStats, rows int64) {
	if st == nil {
		return
	}
	st.Rows += rows
	st.Nexts++
}

// statDrained records that an operator reached the end of its stream.
func statDrained(st *OpStats) {
	if st != nil {
		st.Drained = true
	}
}

// vecScratch is one sweep's reusable batch state: the output batch, the
// selection-vector ping-pong buffers, the kernels' dictionary-code memo
// tables, and the expression kernels' output vectors and selection
// scratch.
type vecScratch struct {
	batch      Batch
	allIdx     []int32
	selA, selB []int32
	flip       bool // narrow writes selB next (else selA)
	memos      []codeMemo
	selBufs    [][]int32   // CASE-arm selection scratch
	exprVecs   []types.Vec // expression kernel outputs, by slot
}

// newVecScratch sizes scratch state for the pipeline's batch width.
func newVecScratch(s *vecSpec) *vecScratch {
	return &vecScratch{
		batch:    Batch{Cols: make([]types.Vec, s.numCols)},
		memos:    make([]codeMemo, s.nMemos),
		selBufs:  make([][]int32, s.nBufs),
		exprVecs: make([]types.Vec, s.nSlots),
	}
}

func (s *vecSpec) open() error {
	s.sc = newVecScratch(s)
	return s.src.open()
}

func (s *vecSpec) close() { s.src.close() }

// next pulls source batches until one has live rows after the stages:
// filters narrow the selection vector, computed projections publish new
// batch columns. The source's vectors are shared, never copied.
func (s *vecSpec) next() (*Batch, error) {
	sc := s.sc
	b := &sc.batch
	for {
		in, err := s.src.next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			for si := range s.stages {
				statDrained(s.stages[si].stats)
			}
			return nil, nil
		}
		copy(b.Cols, in.Cols[:s.width])
		b.N = in.N
		cur := liveRows(in, &sc.allIdx)
		filtered := in.HasSel
		for si := range s.stages {
			st := &s.stages[si]
			if len(st.filt) > 0 {
				cur = sc.narrow(st.filt, b, cur)
				filtered = true
			}
			for _, ce := range st.exprs {
				res := ce.expr.eval(b, cur, sc)
				b.Cols[ce.dst] = *res
			}
			statAdd(st.stats, int64(len(cur)))
		}
		if len(cur) == 0 {
			continue
		}
		b.Sel, b.HasSel = nil, false
		if filtered {
			b.Sel, b.HasSel = cur, true
		}
		return b, nil
	}
}

// narrow runs filter conjuncts over the live rows cur, keeping after
// each the rows whose result is non-NULL TRUE, so later conjuncts see
// only the survivors. It alternates between the two scratch selection
// buffers so no conjunct writes the buffer it reads.
func (sc *vecScratch) narrow(filt []vecExpr, b *Batch, cur []int32) []int32 {
	for _, c := range filt {
		buf := &sc.selA
		if sc.flip {
			buf = &sc.selB
		}
		sc.flip = !sc.flip
		v := c.eval(b, cur, sc)
		out, res, hn := (*buf)[:0], v.I64, len(v.Nulls) > 0
		for _, i := range cur {
			if res[i] != 0 && (!hn || !v.NullAt(int(i))) {
				out = append(out, i)
			}
		}
		*buf, cur = out, out
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

// decodeRows boxes the given rows of the batch in order, appending to
// dst. The rows share one flat backing array.
func (s *vecSpec) decodeRows(b *Batch, rows []int32, dst []types.Row) []types.Row {
	w := len(s.proj)
	flat := make(types.Row, len(rows)*w)
	for k, ci := range s.proj {
		v := &b.Cols[ci]
		for i, ri := range rows {
			flat[i*w+k] = v.Value(int(ri))
		}
	}
	for i := range rows {
		dst = append(dst, flat[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// decodeRow boxes one output row of the batch.
func (s *vecSpec) decodeRow(b *Batch, ri int) types.Row {
	row := make(types.Row, len(s.proj))
	for k, ci := range s.proj {
		row[k] = b.Cols[ci].Value(ri)
	}
	return row
}

// --- dictionary-code memos ---------------------------------------------

// epochMemo caches one outcome per dictionary code for the current
// dictionary view. Entries are valid only when their epoch matches cur;
// nextView keeps the epoch while successive batches decode through a
// Same view and bumps it when the view changes, since a delta merge
// re-encodes codes. The memo holds its view, so the dictionary arrays
// Same compares stay alive (and cannot be reused) while entries refer to
// them.
type epochMemo[T any] struct {
	val   []T
	epoch []uint32
	cur   uint32
	view  types.DictView
}

// codeMemo is the predicate kernels' per-code outcome memo: 1 TRUE, 0
// FALSE, -1 NULL.
type codeMemo = epochMemo[int8]

// nextView readies the memo for a vector decoded by v: a no-op while v is
// Same as the memo's view, else a new epoch covering v's codes and one
// slot more (keyIndex shifts codes up one to give NULL slot 0).
func (m *epochMemo[T]) nextView(v types.DictView) {
	if m.cur != 0 && v.Same(m.view) {
		return
	}
	m.view = v
	m.bump(v.Size() + 1)
}

// bump starts a new epoch, growing the tables to cover size codes.
func (m *epochMemo[T]) bump(size int) {
	if size > len(m.val) {
		nv := make([]T, size)
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

// get returns the outcome memoized for code in this epoch, if any.
func (m *epochMemo[T]) get(code int32) (T, bool) {
	return m.val[code], m.epoch[code] == m.cur
}

// put memoizes code's outcome for this epoch.
func (m *epochMemo[T]) put(code int32, v T) {
	m.val[code], m.epoch[code] = v, m.cur
}

// --- row adapter --------------------------------------------------------

// decodeChunk is how many rows the row adapter boxes at a time: a row
// consumer that stops early leaves the rest of the batch undecoded.
const decodeChunk = 64

// vecRowsIter is the single batch→row adapter: it pulls batches from
// the pipeline of a compiled plan lazily and hands out their live rows in batch order — exactly
// the row executor's order — boxing them decodeChunk rows at a time.
type vecRowsIter struct {
	spec *vecSpec
	met  *Metrics

	b    *Batch
	live []int32 // the batch's live rows not yet decoded
	all  []int32
	rows []types.Row // the decoded chunk
	idx  int
}

func (s *vecRowsIter) Open() error {
	s.b, s.live, s.rows, s.idx = nil, nil, nil, 0
	if s.met != nil {
		s.met.VecPipelines.Inc()
	}
	return s.spec.open()
}

func (s *vecRowsIter) Next() (types.Row, bool, error) {
	for s.idx >= len(s.rows) {
		if len(s.live) == 0 {
			b, err := s.spec.next()
			if b == nil || err != nil {
				return nil, false, err
			}
			s.b, s.live = b, liveRows(b, &s.all)
		}
		n := min(len(s.live), decodeChunk)
		s.rows, s.idx = s.spec.decodeRows(s.b, s.live[:n], s.rows[:0]), 0
		s.live = s.live[n:]
	}
	row := s.rows[s.idx]
	s.idx++
	return row, true, nil
}

func (s *vecRowsIter) Close() {
	s.spec.close()
	s.b, s.live, s.rows = nil, nil, nil
}
