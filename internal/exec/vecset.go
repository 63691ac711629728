package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized DISTINCT: dedup over a batch pipeline or a UNION ALL of
// batch pipelines, keying on the typed AppendKey encodings built
// directly from the column batches (Vec.AppendKeyAt is byte-parity with
// boxing the value and calling Value.AppendKey, so group identity is
// exactly distinctIter's). Serial mode streams: batches fill lazily and
// rows decode one at a time only when their key is first seen, so a
// LIMIT above stops the scan early and a high-duplication input boxes
// almost nothing. Parallel mode folds each morsel's locally-first-seen
// candidates and merges them against the global seen set in morsel
// order — which is scan order, so first-seen order (and therefore the
// output) is identical to the serial row path.

// vecDistinctIter is the batch dedup operator over one or more source
// pipelines (UNION ALL branches dedup straight into one seen set, never
// materializing the union).
type vecDistinctIter struct {
	srcs       []*vecSpec
	batchSize  int
	workers    int
	morselSize int
	gov        *Governance
	met        *Metrics

	acct   memAcct
	stride govStride
	unpins []func()
	seen   map[string]bool

	// serial streaming state
	si         int
	sc         *vecScratch
	total, pos int
	live       []int32
	li         int

	// parallel materialized state
	parallel bool
	rows     []types.Row
	ri       int

	parWorkers, morsels int
}

func (d *vecDistinctIter) Open() error {
	d.acct = memAcct{gov: d.gov}
	d.stride = govStride{gov: d.gov}
	d.seen = make(map[string]bool)
	d.parallel = d.workers > 1
	d.rows, d.ri = nil, 0
	d.parWorkers, d.morsels = 0, 0
	if err := d.gov.point(PointScan); err != nil {
		return err
	}
	if d.met != nil {
		d.met.VecPipelines.Inc()
	}
	for _, s := range d.srcs {
		d.unpins = append(d.unpins, s.snap.Pin())
	}
	if d.parallel {
		return d.foldParallel()
	}
	d.si, d.pos, d.total = 0, 0, 0
	d.live, d.li = nil, 0
	if len(d.srcs) > 0 {
		d.sc = newVecScratch(d.srcs[0])
		d.total = d.srcs[0].snap.NumRowVersions()
	}
	return nil
}

func (d *vecDistinctIter) Next() (types.Row, bool, error) {
	if d.parallel {
		if d.ri >= len(d.rows) {
			return nil, false, nil
		}
		row := d.rows[d.ri]
		d.ri++
		return row, true, nil
	}
	for {
		if d.li < len(d.live) {
			s := d.srcs[d.si]
			ri := int(d.live[d.li])
			d.li++
			if err := d.stride.tick(); err != nil {
				return nil, false, err
			}
			s.appendRowKey(d.sc, ri)
			if d.seen[string(d.sc.keyBuf)] {
				continue
			}
			key := string(d.sc.keyBuf)
			d.seen[key] = true
			if err := d.acct.add(int64(len(key)) + 48); err != nil {
				return nil, false, err
			}
			return s.decodeRow(d.sc, ri), true, nil
		}
		if d.si >= len(d.srcs) {
			return nil, false, nil
		}
		if d.pos >= d.total {
			d.si++
			if d.si >= len(d.srcs) {
				return nil, false, nil
			}
			d.sc = newVecScratch(d.srcs[d.si])
			d.total = d.srcs[d.si].snap.NumRowVersions()
			d.pos = 0
			d.live, d.li = nil, 0
			continue
		}
		s := d.srcs[d.si]
		hi := d.pos + d.batchSize
		if err := s.fill(d.pos, hi, d.sc); err != nil {
			return nil, false, err
		}
		d.pos = hi
		b := &d.sc.batch
		if b.HasSel {
			d.live = b.Sel
		} else {
			d.live = d.sc.liveAll(b.N)
		}
		d.li = 0
	}
}

// distCand is one morsel-locally-new row: its dedup key and the decoded
// row, in within-morsel scan order.
type distCand struct {
	key string
	row types.Row
}

// foldParallel dedups each source's morsels in the worker pool. A
// morsel's candidate list holds only its locally-first-seen rows; the
// serial merge re-checks them against the global seen set in morsel
// order, so the surviving rows are exactly the serial first-seen set in
// the serial order.
func (d *vecDistinctIter) foldParallel() error {
	for _, s := range d.srcs {
		total := s.snap.NumRowVersions()
		morsels := (total + d.morselSize - 1) / d.morselSize
		work := func(seq int) ([]distCand, error) {
			if err := d.gov.point(PointScan); err != nil {
				return nil, err
			}
			sc := newVecScratch(s)
			local := make(map[string]bool)
			var cands []distCand
			lo := seq * d.morselSize
			hi := lo + d.morselSize
			if hi > total {
				hi = total
			}
			for pos := lo; pos < hi; pos += d.batchSize {
				end := pos + d.batchSize
				if end > hi {
					end = hi
				}
				if err := s.fill(pos, end, sc); err != nil {
					return nil, err
				}
				b := &sc.batch
				add := func(ri int) {
					s.appendRowKey(sc, ri)
					if local[string(sc.keyBuf)] {
						return
					}
					key := string(sc.keyBuf)
					local[key] = true
					cands = append(cands, distCand{key: key, row: s.decodeRow(sc, ri)})
				}
				if b.HasSel {
					for _, ri := range b.Sel {
						add(int(ri))
					}
				} else {
					for ri := 0; ri < b.N; ri++ {
						add(ri)
					}
				}
			}
			return cands, nil
		}
		results, err := collectMorsels(morsels, d.workers, work)
		if err != nil {
			return err
		}
		if d.met != nil {
			d.met.ParallelPipelines.Inc()
			d.met.MorselsScanned.Add(int64(morsels))
		}
		w := d.workers
		if w > morsels {
			w = morsels
		}
		if w > d.parWorkers {
			d.parWorkers = w
		}
		d.morsels += morsels
		for _, cands := range results {
			for _, c := range cands {
				if err := d.stride.tick(); err != nil {
					return err
				}
				if d.seen[c.key] {
					continue
				}
				d.seen[c.key] = true
				if err := d.acct.add(int64(len(c.key)) + 48); err != nil {
					return err
				}
				d.rows = append(d.rows, c.row)
			}
		}
	}
	return nil
}

func (d *vecDistinctIter) Close() {
	for _, unpin := range d.unpins {
		unpin()
	}
	d.unpins = nil
	d.acct.close()
	d.seen = nil
	d.rows = nil
	d.live = nil
}

func (d *vecDistinctIter) memBytes() int64 { return d.acct.bytes() }

func (d *vecDistinctIter) extraStats(st *OpStats) {
	if d.morsels > 0 {
		st.Workers = int64(d.parWorkers)
		st.Morsels = int64(d.morsels)
	}
}

// appendRowKey builds the composite dedup key of row ri's output
// columns into the scratch key buffer.
func (s *vecSpec) appendRowKey(sc *vecScratch, ri int) {
	sc.keyBuf = sc.keyBuf[:0]
	for _, ci := range s.proj {
		sc.keyBuf = sc.batch.Cols[ci].AppendKeyAt(sc.keyBuf, ri)
	}
}

// decodeRow boxes one live row of the scratch batch.
func (s *vecSpec) decodeRow(sc *vecScratch, ri int) types.Row {
	row := make(types.Row, len(s.proj))
	for k, ci := range s.proj {
		row[k] = sc.batch.Cols[ci].Value(ri)
	}
	return row
}

// buildVecDistinct compiles DISTINCT over a batch pipeline (or a UNION
// ALL of batch pipelines) into the batch dedup operator.
func (b *Builder) buildVecDistinct(n *plan.Distinct) (Iterator, string) {
	frags, _ := b.vecSources(n.Input)
	if frags == nil {
		return nil, "distinct"
	}
	srcs := make([]*vecSpec, len(frags))
	for i, f := range frags {
		srcs[i] = f.spec
	}
	if b.analyze {
		for _, f := range frags {
			b.attachVecStats(f, true)
		}
		b.stampVecUnion(n.Input)
		b.nodeStats(n).Mode = "vector"
	}
	return &vecDistinctIter{
		srcs:       srcs,
		batchSize:  b.vecSize,
		workers:    b.workers,
		morselSize: b.morselSize,
		gov:        b.gov,
		met:        b.met,
	}, ""
}
