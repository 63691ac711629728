package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized DISTINCT: dedup over a batch source, keying on the typed
// AppendKey encodings built directly from the column batches
// (Vec.AppendKeyAt is byte-parity with boxing the value and calling
// Value.AppendKey, so group identity is exactly distinctIter's). It
// streams: batches are pulled lazily and rows decode one at a time only
// when their key is first seen, so a LIMIT above stops the scan early
// and a high-duplication input boxes almost nothing. UNION ALL branches
// dedup straight into one seen set, never materializing the union.

// vecDistinctIter is the batch dedup operator.
type vecDistinctIter struct {
	src *vecSpec
	gov *Governance
	met *Metrics

	acct   memAcct
	stride govStride
	seen   map[string]bool
	keyBuf []byte

	// streaming state: current batch, its live rows
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
	d.live, d.li = nil, 0
	return d.src.open()
}

func (d *vecDistinctIter) Next() (types.Row, bool, error) {
	for {
		if d.li < len(d.live) {
			ri := int(d.live[d.li])
			d.li++
			if err := d.stride.tick(); err != nil {
				return nil, false, err
			}
			d.keyBuf = d.src.appendRowKey(d.keyBuf[:0], d.b, ri)
			if d.seen[string(d.keyBuf)] {
				continue
			}
			key := string(d.keyBuf)
			d.seen[key] = true
			if err := d.acct.add(int64(len(key)) + 48); err != nil {
				return nil, false, err
			}
			return d.src.decodeRow(d.b, ri), true, nil
		}
		b, err := d.src.next()
		if b == nil || err != nil {
			return nil, false, err
		}
		d.b, d.live, d.li = b, liveRows(b, &d.all), 0
	}
}

func (d *vecDistinctIter) Close() {
	d.src.close()
	d.acct.close()
	d.seen = nil
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
