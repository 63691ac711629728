package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized DISTINCT: dedup over a batch source. A keyIndex numbers
// each batch's rows by their output columns, with NULL one value as in
// distinctIter's AppendKey keys, and a row is new when its id is. It
// streams: batches are pulled lazily and a row is decoded only when it
// is new, so a LIMIT above stops the scan early and a high-duplication
// input boxes almost nothing. UNION ALL branches dedup straight into
// one index, never materializing the union.

// vecDistinctIter is the batch dedup operator.
type vecDistinctIter struct {
	src *vecSpec
	gov *Governance
	met *Metrics

	acct   memAcct
	stride govStride
	keys   keyIndex
	seen   int32 // distinct rows emitted: the next new id

	// streaming state: current batch, its live rows and their key ids
	b    *Batch
	live []int32
	ids  []int32
	li   int
	all  []int32
}

func (d *vecDistinctIter) Open() error {
	d.acct = memAcct{gov: d.gov}
	d.stride = govStride{gov: d.gov}
	d.keys, d.seen = newKeyIndex(len(d.src.proj), true, &d.acct), 0
	if d.met != nil {
		d.met.VecPipelines.Inc()
	}
	d.live, d.li = nil, 0
	return d.src.open()
}

func (d *vecDistinctIter) Next() (types.Row, bool, error) {
	for {
		if d.li < len(d.live) {
			k := d.li
			d.li++
			if err := d.stride.tick(); err != nil {
				return nil, false, err
			}
			if d.ids[k] < d.seen {
				continue
			}
			d.seen++
			return d.src.decodeRow(d.b, int(d.live[k])), true, nil
		}
		b, err := d.src.next()
		if b == nil || err != nil {
			return nil, false, err
		}
		d.b, d.live, d.li = b, liveRows(b, &d.all), 0
		if d.ids, err = d.keys.insert(b, d.src.proj, d.live, d.ids[:0]); err != nil {
			return nil, false, err
		}
	}
}

func (d *vecDistinctIter) Close() {
	d.src.close()
	d.acct.close()
	d.keys = keyIndex{}
	d.live = nil
	d.b = nil
}

func (d *vecDistinctIter) memBytes() int64 { return d.acct.bytes() }

// buildVecDistinct compiles DISTINCT over a batch source into the batch
// dedup operator.
func (b *Builder) buildVecDistinct(n *plan.Distinct) (Iterator, string) {
	f, _ := b.vecFragment(n.Input)
	if f == nil {
		return nil, "distinct"
	}
	f.spec.need(f.spec.proj)
	if b.analyze {
		b.attachVecStats(f, true)
		b.nodeStats(n).Mode = "vector"
	}
	return &vecDistinctIter{src: f.spec, gov: b.gov, met: b.met}, ""
}
