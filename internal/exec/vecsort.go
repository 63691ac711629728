package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized ORDER BY: a Sort over a batch source, bare or fused with the
// LIMIT/OFFSET above it, runs as topkHeap over rows boxed straight from
// column batches, and hands its page out packed into batches again. A
// bounded sweep boxes only a candidate's sort keys first; the rest of its
// row is decoded only if it enters the heap, so a LIMIT 10 over millions
// of rows decodes the keys once and full rows a handful of times. An
// unbounded sweep keeps every row, so it boxes each batch's live rows at
// once. Candidates carry their arrival sequence (UNION ALL branches
// arrive in branch order), which is the row path's tie-break, so results
// are row- and order-identical to sortIter.

// sortSource is the batch ORDER BY. Open drains the input through the
// heap and keeps the page; next hands it out.
type sortSource struct {
	sortPage
	in      *vecSpec
	keyCols []int // batch column of each sort key; keys index the input's output rows
	srcStats
	rowPacker
	// srt and lim are the plan's Sort and the LIMIT fused into it (nil
	// for a bare ORDER BY), for EXPLAIN ANALYZE and exec.topk_fusions.
	srt *plan.Sort
	lim *plan.Limit
}

func (s *sortSource) open() error {
	defer s.timeOpen()()
	h, err := s.start()
	if h == nil || err != nil {
		return err
	}
	sweep := s.sweepBounded
	if h.keep < 0 {
		sweep = s.sweepAll
	}
	if err := sweep(h); err != nil {
		return err
	}
	s.rows, err = h.page(s.offset)
	s.built(s.rows)
	return err
}

// sweepBounded offers every live row of the input to a bounded heap. A
// candidate's sort keys are boxed into a scratch row first; the full row
// is boxed, and the heap growth metered, only when the heap takes it.
func (s *sortSource) sweepBounded(h *topkHeap) error {
	scratch := make(types.Row, len(s.in.proj))
	var all []int32
	seq := 0
	return forEachBatch(s.in, func(b *Batch) error {
		for _, ri := range liveRows(b, &all) {
			for x, kc := range s.keyCols {
				scratch[s.keys[x].idx] = b.Cols[kc].Value(int(ri))
			}
			cand := topkItem{row: scratch, seq: seq}
			seq++
			if h.rejects(&cand) {
				continue
			}
			cand.row = s.in.decodeRow(b, int(ri))
			if h.push(cand) {
				if err := s.acct.add(rowBytes(cand.row)); err != nil {
					return err
				}
			}
		}
		return h.err
	})
}

// sweepAll keeps every live row of the input in an unbounded heap,
// boxing each batch's rows with one decodeRows call and metering each.
func (s *sortSource) sweepAll(h *topkHeap) error {
	var all []int32
	var rows []types.Row
	return forEachBatch(s.in, func(b *Batch) error {
		rows = s.in.decodeRows(b, liveRows(b, &all), rows[:0])
		for _, row := range rows {
			h.push(topkItem{row: row, seq: len(h.items)})
			if err := s.acct.add(rowBytes(row)); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *sortSource) next() (*Batch, error) { return s.emit(s.pack(s.rows, &s.pos)), nil }

func (s *sortSource) close() {
	s.in.close()
	s.release(&s.acct)
	s.rows = nil
}

// vecSort compiles a Sort over a batch source into a sort source. lim is
// the LIMIT/OFFSET fused into it, nil for a bare ORDER BY; the fused
// source runs for the Limit node.
func (b *Builder) vecSort(srt *plan.Sort, lim *plan.Limit) (*vecFrag, string) {
	in, _ := b.vecFragment(srt.Input)
	if in == nil {
		return nil, ""
	}
	keys, err := b.sortKeys(srt)
	if err != nil {
		return nil, "" // the row path reports the error
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
	return &vecFrag{spec: newVecSpec(s, len(in.cols)), cols: in.cols, nodes: []plan.Node{top}, kids: []*vecFrag{in}}, ""
}
