package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized ORDER BY: a Sort over a batch source, bare or fused with the
// LIMIT/OFFSET above it, runs as topkHeap over rows boxed straight from
// column batches. A bounded sweep boxes only a candidate's sort keys
// first; the rest of its row is decoded only if it enters the heap, so a
// LIMIT 10 over millions of rows decodes the keys once and full rows a
// handful of times. An unbounded sweep keeps every row, so it boxes each
// batch's live rows at once. Candidates carry their arrival sequence
// (UNION ALL branches arrive in branch order), which is the row path's
// tie-break, so results are row- and order-identical to sortIter.

// vecSortIter is the batch ORDER BY operator. Open drains the source
// through the heap and keeps the emitted page.
type vecSortIter struct {
	sortPage
	spec    *vecSpec
	keyCols []int // batch column of each sort key; keys index the source's output rows
	met     *Metrics
}

func (t *vecSortIter) Open() error {
	h, err := t.start()
	if err != nil {
		return err
	}
	if t.met != nil {
		t.met.VecPipelines.Inc()
	}
	if h == nil {
		return nil
	}
	sweep := t.sweepBounded
	if h.keep < 0 {
		sweep = t.sweepAll
	}
	if err := sweep(h); err != nil {
		return err
	}
	t.rows, err = h.page(t.offset)
	return err
}

// sweepBounded offers every live row of the source to a bounded heap. A
// candidate's sort keys are boxed into a scratch row first; the full row
// is boxed, and the heap growth metered, only when the heap takes it.
func (t *vecSortIter) sweepBounded(h *topkHeap) error {
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

// sweepAll keeps every live row of the source in an unbounded heap,
// boxing each batch's rows with one decodeRows call and metering each.
func (t *vecSortIter) sweepAll(h *topkHeap) error {
	var all []int32
	var rows []types.Row
	return forEachBatch(t.spec, func(b *Batch) error {
		rows = t.spec.decodeRows(b, liveRows(b, &all), rows[:0])
		for _, row := range rows {
			h.push(topkItem{row: row, seq: len(h.items)})
			if err := t.acct.add(rowBytes(row)); err != nil {
				return err
			}
		}
		return nil
	})
}

func (t *vecSortIter) Close() {
	t.spec.close()
	t.acct.close()
	t.rows = nil
}

// buildVecSort compiles a Sort into the batch ORDER BY operator when its
// input is a batch source, or returns nil. lim is the LIMIT/OFFSET fused
// into it, nil for a bare ORDER BY.
func (b *Builder) buildVecSort(srt *plan.Sort, lim *plan.Limit) Iterator {
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
	it := &vecSortIter{sortPage: sortPage{keys: keys, count: -1, gov: b.gov}, spec: f.spec, keyCols: kc, met: b.met}
	if lim != nil {
		it.offset, it.count = lim.Offset, lim.Count
		b.noteFusion(srt, lim)
	}
	if b.analyze {
		b.attachVecStats(f, true)
		b.nodeStats(srt).Mode = "vector"
	}
	return it
}
