package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized DISTINCT: dedup over a batch pipeline or a UNION ALL of
// batch pipelines, keying on the typed AppendKey encodings built
// directly from the column batches (Vec.AppendKeyAt is byte-parity with
// boxing the value and calling Value.AppendKey, so group identity is
// exactly distinctIter's). It streams: batches fill lazily and rows
// decode one at a time only when their key is first seen, so a LIMIT
// above stops the scan early and a high-duplication input boxes almost
// nothing.

// vecDistinctIter is the batch dedup operator over one or more source
// pipelines (UNION ALL branches dedup straight into one seen set, never
// materializing the union).
type vecDistinctIter struct {
	srcs      []*vecSpec
	batchSize int
	gov       *Governance
	met       *Metrics

	acct   memAcct
	stride govStride
	unpins []func()
	seen   map[string]bool

	// streaming state: source, scratch batch, position, live rows
	si         int
	sc         *vecScratch
	total, pos int
	live       []int32
	li         int
}

func (d *vecDistinctIter) Open() error {
	d.acct = memAcct{gov: d.gov}
	d.stride = govStride{gov: d.gov}
	d.seen = make(map[string]bool)
	if err := d.gov.point(PointScan); err != nil {
		return err
	}
	if d.met != nil {
		d.met.VecPipelines.Inc()
	}
	for _, s := range d.srcs {
		d.unpins = append(d.unpins, s.snap.Pin())
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

func (d *vecDistinctIter) Close() {
	for _, unpin := range d.unpins {
		unpin()
	}
	d.unpins = nil
	d.acct.close()
	d.seen = nil
	d.live = nil
}

func (d *vecDistinctIter) memBytes() int64 { return d.acct.bytes() }

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
		srcs:      srcs,
		batchSize: b.vecSize,
		gov:       b.gov,
		met:       b.met,
	}, ""
}
