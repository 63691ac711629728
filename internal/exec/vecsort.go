package exec

import (
	"fmt"
	"sort"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized top-k: LIMIT over ORDER BY over a batch pipeline (or a
// UNION ALL of batch pipelines) runs as a bounded heap over typed sort
// keys boxed straight from column batches. Only the sort keys are boxed
// during the sweep; the emitted page is materialized afterwards by
// re-filling exactly the winning row positions and re-running only the
// compute kernels — late materialization, so a LIMIT 10 over millions
// of rows never decodes more than 10 full rows per source. The heap
// comparator breaks key ties on (source, row position), which is the
// row path's arrival order, so results are row- and order-identical to
// topKIter.

// vecTopKSrc is one input pipeline of the top-k sweep with its sort-key
// batch columns resolved.
type vecTopKSrc struct {
	spec    *vecSpec
	keyCols []int
}

// vecTopKItem is one heap candidate: the boxed sort keys plus the
// source and storage position that identify (and later re-materialize)
// the row.
type vecTopKItem struct {
	keys types.Row
	src  int
	pos  int
}

// topkHeap is a bounded max-heap of candidates: the root is the worst
// row kept, evicted as soon as a better candidate arrives. Comparison
// errors are captured on first occurrence (comparing values of
// incompatible types across UNION ALL branches), exactly like topKIter's
// cmpErr closure.
type topkHeap struct {
	items   []vecTopKItem
	keep    int
	keys    []sortKeySpec
	scratch types.Row
	err     error
}

// after reports whether a sorts after b: worse key, or equal keys with
// later arrival order (src, pos).
func (h *topkHeap) after(a, b *vecTopKItem) bool {
	c, err := compareRows(a.keys, b.keys, h.keys)
	if err != nil && h.err == nil {
		h.err = err
	}
	if c != 0 {
		return c > 0
	}
	if a.src != b.src {
		return a.src > b.src
	}
	return a.pos > b.pos
}

// offer boxes row ri's sort keys into the heap's reusable scratch tuple
// and pushes only when the candidate can actually enter — once the heap
// is full, rows that lose to the current root are rejected without
// cloning the tuple, so the hot sweep loop stays allocation-free.
// Reports whether the heap grew.
func (h *topkHeap) offer(b *Batch, keyCols []int, ri, src, pos int) bool {
	if h.scratch == nil {
		h.scratch = make(types.Row, len(keyCols))
	}
	for x, kc := range keyCols {
		h.scratch[x] = b.Cols[kc].Value(ri)
	}
	cand := vecTopKItem{keys: h.scratch, src: src, pos: pos}
	if len(h.items) == h.keep && !h.after(&h.items[0], &cand) {
		return false
	}
	cand.keys = append(types.Row(nil), h.scratch...)
	return h.push(cand)
}

// push offers a candidate, reporting whether the heap grew (the only
// case that allocates and therefore meters).
func (h *topkHeap) push(it vecTopKItem) bool {
	if len(h.items) < h.keep {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return true
	}
	if h.after(&h.items[0], &it) {
		h.items[0] = it
		h.down(0)
	}
	return false
}

func (h *topkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.after(&h.items[i], &h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *topkHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && h.after(&h.items[r], &h.items[l]) {
			c = r
		}
		if !h.after(&h.items[c], &h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// sorted returns the kept candidates in ascending output order.
func (h *topkHeap) sorted() []vecTopKItem {
	items := h.items
	sort.Slice(items, func(i, j int) bool { return h.after(&items[j], &items[i]) })
	return items
}

// vecTopKIter is the batch top-k operator. Open sweeps every source's
// batches through the bounded heap, then materializes the emitted page.
type vecTopKIter struct {
	srcs          []vecTopKSrc
	keys          []sortKeySpec // indexes into the boxed key tuple
	offset, count int64
	batchSize     int
	gov           *Governance
	met           *Metrics

	acct   memAcct
	unpins []func()
	rows   []types.Row
	pos    int
}

func (t *vecTopKIter) Open() error {
	t.acct = memAcct{gov: t.gov}
	t.rows, t.pos = nil, 0
	if err := t.gov.point(PointTopK); err != nil {
		return err
	}
	if t.met != nil {
		t.met.VecPipelines.Inc()
	}
	// Pin every source snapshot for the whole sweep + materialization.
	for _, s := range t.srcs {
		t.unpins = append(t.unpins, s.spec.snap.Pin())
	}
	keep := t.offset + t.count
	if keep <= 0 {
		return nil
	}
	h := &topkHeap{keep: int(keep), keys: t.keys}
	if err := t.sweep(h); err != nil {
		return err
	}
	return t.materialize(h)
}

// offerBatch pushes every live row of the scratch batch into the heap,
// metering heap growth by key bytes.
func (t *vecTopKIter) offerBatch(h *topkHeap, s *vecTopKSrc, si int, sc *vecScratch) error {
	b := &sc.batch
	push := func(ri int) error {
		if h.offer(b, s.keyCols, ri, si, sc.idx[ri]) {
			return t.acct.add(rowBytes(h.scratch))
		}
		return nil
	}
	if b.HasSel {
		for _, ri := range b.Sel {
			if err := push(int(ri)); err != nil {
				return err
			}
		}
	} else {
		for ri := 0; ri < b.N; ri++ {
			if err := push(ri); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweep offers every source's batches to the heap, in source then
// position order.
func (t *vecTopKIter) sweep(h *topkHeap) error {
	for si := range t.srcs {
		s := &t.srcs[si]
		if err := t.gov.point(PointScan); err != nil {
			return err
		}
		sc := newVecScratch(s.spec)
		total := s.spec.snap.NumRowVersions()
		for pos := 0; pos < total; pos += t.batchSize {
			if err := s.spec.fill(pos, pos+t.batchSize, sc); err != nil {
				return err
			}
			if err := t.offerBatch(h, s, si, sc); err != nil {
				return err
			}
			if h.err != nil {
				return h.err
			}
		}
	}
	return nil
}

// materialize re-fills exactly the emitted page's row positions per
// source and assembles the output rows in heap order.
func (t *vecTopKIter) materialize(h *topkHeap) error {
	items := h.sorted()
	if h.err != nil {
		return h.err
	}
	start := int(t.offset)
	if start > len(items) {
		start = len(items)
	}
	emit := items[start:]
	if len(emit) == 0 {
		return nil
	}
	perSrc := make([][]int, len(t.srcs))
	for _, it := range emit {
		perSrc[it.src] = append(perSrc[it.src], it.pos)
	}
	queues := make([][]types.Row, len(t.srcs))
	for si, positions := range perSrc {
		if len(positions) == 0 {
			continue
		}
		rows, err := t.srcs[si].spec.fillPositions(positions)
		if err != nil {
			return err
		}
		queues[si] = rows
	}
	next := make([]int, len(t.srcs))
	t.rows = make([]types.Row, 0, len(emit))
	for _, it := range emit {
		row := queues[it.src][next[it.src]]
		next[it.src]++
		if err := t.acct.add(rowBytes(row)); err != nil {
			return err
		}
		t.rows = append(t.rows, row)
	}
	return nil
}

// fillPositions materializes the given storage positions — visibility
// was already established during the sweep, so the batch fills directly
// from the position list (in any order) and re-runs only the compute
// kernels; filter kernels are skipped because every listed row already
// passed them and admitted kernels are total.
func (s *vecSpec) fillPositions(positions []int) ([]types.Row, error) {
	if err := s.gov.Err(); err != nil {
		return nil, err
	}
	sc := newVecScratch(s)
	sc.idx = positions
	b := &sc.batch
	b.N = len(positions)
	b.Sel, b.HasSel = nil, false
	s.snap.FillVecs(sc.idx, s.ords, sc.ptrs)
	if s.met != nil {
		s.met.VecBatches.Inc()
	}
	sel := sc.liveAll(b.N)
	for si := range s.stages {
		for _, ce := range s.stages[si].exprs {
			res := ce.expr.eval(b, sel, sc)
			b.Cols[ce.dst] = *res
		}
	}
	return s.decodeRows(sc, nil), nil
}

func (t *vecTopKIter) Next() (types.Row, bool, error) {
	if t.pos >= len(t.rows) {
		return nil, false, nil
	}
	row := t.rows[t.pos]
	t.pos++
	return row, true, nil
}

func (t *vecTopKIter) Close() {
	for _, unpin := range t.unpins {
		unpin()
	}
	t.unpins = nil
	t.acct.close()
	t.rows = nil
}

func (t *vecTopKIter) buildStats() (int64, int64) { return rowSetBytes(t.rows) }
func (t *vecTopKIter) memBytes() int64            { return t.acct.bytes() }

func (t *vecTopKIter) extraStats(st *OpStats) {
	st.Note = fmt.Sprintf("top_k=%d", t.offset+t.count)
}

// buildVecTopK compiles LIMIT-over-ORDER BY into the batch top-k
// operator when the sort input is a batch pipeline or a UNION ALL of
// batch pipelines.
func (b *Builder) buildVecTopK(n *plan.Limit) Iterator {
	srt, ok := n.Input.(*plan.Sort)
	if !ok || n.Count < 0 || n.Offset < 0 {
		return nil
	}
	frags, _ := b.vecSources(srt.Input)
	if frags == nil {
		return nil
	}
	keys, err := b.sortKeys(srt)
	if err != nil {
		return nil // the row path reports the error
	}
	srcs := make([]vecTopKSrc, len(frags))
	for i, f := range frags {
		kc := make([]int, len(keys))
		for x, k := range keys {
			if k.idx >= len(f.spec.proj) {
				return nil
			}
			kc[x] = f.spec.proj[k.idx]
		}
		srcs[i] = vecTopKSrc{spec: f.spec, keyCols: kc}
	}
	// The heap compares boxed key tuples, not full rows: remap each key
	// to its tuple position.
	hkeys := make([]sortKeySpec, len(keys))
	for i, k := range keys {
		hkeys[i] = sortKeySpec{idx: i, desc: k.desc}
	}
	if b.met != nil {
		b.met.TopKFusions.Inc()
	}
	if b.analyze {
		for _, f := range frags {
			b.attachVecStats(f, true)
		}
		b.stampVecUnion(srt.Input)
		st := b.nodeStats(srt)
		st.Mode = "vector"
		st.Note = fmt.Sprintf("fused into top_k=%d", n.Offset+n.Count)
	}
	return &vecTopKIter{
		srcs:      srcs,
		keys:      hkeys,
		offset:    n.Offset,
		count:     n.Count,
		batchSize: b.vecSize,
		gov:       b.gov,
		met:       b.met,
	}
}
