package exec

import (
	"fmt"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized top-k: LIMIT over ORDER BY over a batch source (or a UNION
// ALL of batch sources) runs as the bounded topkHeap over rows boxed
// straight from column batches. Only the sort keys are boxed for a
// candidate; the rest of its row is decoded only if it enters the heap,
// so a LIMIT 10 over millions of rows decodes the keys once and full
// rows a handful of times. Candidates carry their arrival sequence
// across all sources (UNION ALL branches in branch order), which is the
// row path's tie-break, so results are row- and order-identical to
// topKIter.

// vecTopKSrc is one input source of the top-k sweep with the batch
// column of each sort key resolved.
type vecTopKSrc struct {
	spec    *vecSpec
	keyCols []int
}

// vecTopKIter is the batch top-k operator. Open drains every source
// through the heap and keeps the emitted page.
type vecTopKIter struct {
	srcs          []vecTopKSrc
	keys          []sortKeySpec // positions in the sources' output rows
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
	seq := 0
	for i := range t.srcs {
		if err := t.sweep(h, &t.srcs[i], &seq); err != nil {
			return err
		}
	}
	rows, err := h.page(t.offset)
	t.rows = rows
	return err
}

// sweep offers every live row of one source to the heap. A candidate's
// sort keys are boxed into a scratch row first; the full row is boxed,
// and the heap growth metered, only when the heap takes it.
func (t *vecTopKIter) sweep(h *topkHeap, s *vecTopKSrc, seq *int) error {
	scratch := make(types.Row, len(s.spec.proj))
	var all []int32
	return forEachBatch(s.spec, func(b *Batch) error {
		for _, ri := range liveRows(b, &all) {
			for x, kc := range s.keyCols {
				scratch[t.keys[x].idx] = b.Cols[kc].Value(int(ri))
			}
			cand := topkItem{row: scratch, seq: *seq}
			*seq++
			if h.rejects(&cand) {
				continue
			}
			cand.row = s.spec.decodeRow(b, int(ri))
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
	for _, s := range t.srcs {
		s.spec.close()
	}
	t.acct.close()
	t.rows = nil
}

func (t *vecTopKIter) buildStats() (int64, int64) { return rowSetBytes(t.rows) }
func (t *vecTopKIter) memBytes() int64            { return t.acct.bytes() }

func (t *vecTopKIter) extraStats(st *OpStats) {
	st.Note = fmt.Sprintf("top_k=%d", t.offset+t.count)
}

// buildVecTopK compiles LIMIT-over-ORDER BY into the batch top-k
// operator when the sort input is a batch source or a UNION ALL of
// batch sources.
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
		f.spec.need(f.spec.proj)
		srcs[i] = vecTopKSrc{spec: f.spec, keyCols: kc}
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
		srcs:   srcs,
		keys:   keys,
		offset: n.Offset,
		count:  n.Count,
		gov:    b.gov,
		met:    b.met,
	}
}
