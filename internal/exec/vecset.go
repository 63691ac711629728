package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized DISTINCT: dedup over a batch source or a UNION ALL of batch
// sources, keying on the typed AppendKey encodings built directly from
// the column batches (Vec.AppendKeyAt is byte-parity with boxing the
// value and calling Value.AppendKey, so group identity is exactly
// distinctIter's). It streams: batches are pulled lazily and rows decode
// one at a time only when their key is first seen, so a LIMIT above
// stops the scan early and a high-duplication input boxes almost
// nothing.

// vecDistinctIter is the batch dedup operator over one or more sources
// (UNION ALL branches dedup straight into one seen set, never
// materializing the union), drained in branch order.
type vecDistinctIter struct {
	srcs []*vecSpec
	gov  *Governance
	met  *Metrics

	acct   memAcct
	stride govStride
	seen   map[string]bool
	keyBuf []byte

	// streaming state: current source, batch, live rows
	si   int
	b    *Batch
	live []int32
	li   int
	all  []int32
}

func (d *vecDistinctIter) Open() error {
	d.acct = memAcct{gov: d.gov}
	d.stride = govStride{gov: d.gov}
	d.seen = make(map[string]bool)
	if d.met != nil {
		d.met.VecPipelines.Inc()
	}
	d.si, d.live, d.li = 0, nil, 0
	for _, s := range d.srcs {
		if err := s.open(); err != nil {
			return err
		}
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
			d.keyBuf = s.appendRowKey(d.keyBuf[:0], d.b, ri)
			if d.seen[string(d.keyBuf)] {
				continue
			}
			key := string(d.keyBuf)
			d.seen[key] = true
			if err := d.acct.add(int64(len(key)) + 48); err != nil {
				return nil, false, err
			}
			return s.decodeRow(d.b, ri), true, nil
		}
		if d.si >= len(d.srcs) {
			return nil, false, nil
		}
		b, err := d.srcs[d.si].next()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			d.si++
			d.live, d.li = nil, 0
			continue
		}
		d.b, d.live, d.li = b, liveRows(b, &d.all), 0
	}
}

func (d *vecDistinctIter) Close() {
	for _, s := range d.srcs {
		s.close()
	}
	d.acct.close()
	d.seen = nil
	d.live = nil
	d.b = nil
}

func (d *vecDistinctIter) memBytes() int64 { return d.acct.bytes() }

// buildVecDistinct compiles DISTINCT over a batch source (or a UNION ALL
// of batch sources) into the batch dedup operator.
func (b *Builder) buildVecDistinct(n *plan.Distinct) (Iterator, string) {
	frags, _ := b.vecSources(n.Input)
	if frags == nil {
		return nil, "distinct"
	}
	srcs := make([]*vecSpec, len(frags))
	for i, f := range frags {
		f.spec.need(f.spec.proj)
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
		srcs: srcs,
		gov:  b.gov,
		met:  b.met,
	}, ""
}
