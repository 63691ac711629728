package exec

import (
	"fmt"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized top-k: LIMIT over ORDER BY over a batch source runs as the
// bounded topkHeap over rows boxed straight from column batches. Only the
// sort keys are boxed for a candidate; the rest of its row is decoded
// only if it enters the heap, so a LIMIT 10 over millions of rows decodes
// the keys once and full rows a handful of times. Candidates carry their
// arrival sequence (UNION ALL branches arrive in branch order), which is
// the row path's tie-break, so results are row- and order-identical to
// topKIter.

// vecTopKIter is the batch top-k operator. Open drains the source
// through the heap and keeps the emitted page.
type vecTopKIter struct {
	spec          *vecSpec
	keyCols       []int         // batch column of each sort key
	keys          []sortKeySpec // positions in the source's output rows
	offset, count int64
	gov           *Governance
	met           *Metrics

	acct memAcct
	rows []types.Row
	pos  int
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
	keep := t.offset + t.count
	if keep <= 0 {
		return nil
	}
	h := &topkHeap{keep: int(keep), keys: t.keys}
	if err := t.sweep(h); err != nil {
		return err
	}
	rows, err := h.page(t.offset)
	t.rows = rows
	return err
}

// sweep offers every live row of the source to the heap. A candidate's
// sort keys are boxed into a scratch row first; the full row is boxed,
// and the heap growth metered, only when the heap takes it.
func (t *vecTopKIter) sweep(h *topkHeap) error {
	scratch := make(types.Row, len(t.spec.proj))
	var all []int32
	seq := 0
	return forEachBatch(t.spec, func(b *Batch) error {
		for _, ri := range liveRows(b, &all) {
			for x, kc := range t.keyCols {
				scratch[t.keys[x].idx] = b.Cols[kc].Value(int(ri))
			}
			cand := topkItem{row: scratch, seq: seq}
			seq++
			if h.rejects(&cand) {
				continue
			}
			cand.row = t.spec.decodeRow(b, int(ri))
			if h.push(cand) {
				if err := t.acct.add(rowBytes(cand.row)); err != nil {
					return err
				}
			}
		}
		return h.err
	})
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
	t.spec.close()
	t.acct.close()
	t.rows = nil
}

func (t *vecTopKIter) buildStats() (int64, int64) { return rowSetBytes(t.rows) }
func (t *vecTopKIter) memBytes() int64            { return t.acct.bytes() }

func (t *vecTopKIter) extraStats(st *OpStats) {
	st.Note = fmt.Sprintf("top_k=%d", t.offset+t.count)
}

// buildVecTopK compiles LIMIT-over-ORDER BY into the batch top-k
// operator when the sort input is a batch source.
func (b *Builder) buildVecTopK(n *plan.Limit) Iterator {
	srt, ok := n.Input.(*plan.Sort)
	if !ok || n.Count < 0 || n.Offset < 0 {
		return nil
	}
	f, _ := b.vecFragment(srt.Input)
	if f == nil {
		return nil
	}
	keys, err := b.sortKeys(srt)
	if err != nil {
		return nil // the row path reports the error
	}
	kc := make([]int, len(keys))
	for x, k := range keys {
		kc[x] = f.spec.proj[k.idx]
	}
	f.spec.need(f.spec.proj)
	if b.met != nil {
		b.met.TopKFusions.Inc()
	}
	if b.analyze {
		b.attachVecStats(f, true)
		st := b.nodeStats(srt)
		st.Mode = "vector"
		st.Note = fmt.Sprintf("fused into top_k=%d", n.Offset+n.Count)
	}
	return &vecTopKIter{
		spec:    f.spec,
		keyCols: kc,
		keys:    keys,
		offset:  n.Offset,
		count:   n.Count,
		gov:     b.gov,
		met:     b.met,
	}
}
