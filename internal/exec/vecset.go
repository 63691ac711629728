package exec

import (
	"vdm/internal/plan"
)

// Vectorized DISTINCT: dedup over a batch source. A keyIndex numbers
// each batch's rows by their output columns, with NULL one value as in
// distinctIter's AppendKey keys, and a row is new when its id is. It
// streams and decodes nothing: each input batch passes on with its
// selection narrowed to its new rows, so a LIMIT above stops the scan
// early. UNION ALL branches dedup straight into one index, never
// materializing the union.

// distinctSource is the batch dedup. Its batches are the input's, under
// the narrowed selection.
type distinctSource struct {
	in  *vecSpec
	gov *Governance
	srcStats

	acct memAcct
	keys keyIndex
	seen int32 // distinct rows emitted: the next new id

	ids, sel, all []int32
	out           Batch
}

func (d *distinctSource) open() error {
	d.acct = memAcct{gov: d.gov}
	d.keys, d.seen = newKeyIndex(len(d.in.proj), true, &d.acct), 0
	return d.in.open()
}

func (d *distinctSource) next() (*Batch, error) {
	for {
		b, err := d.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return d.emit(nil), nil
		}
		live := liveRows(b, &d.all)
		if d.ids, err = d.keys.insert(b, d.in.proj, live, d.ids[:0]); err != nil {
			return nil, err
		}
		d.sel = d.sel[:0]
		for k, ri := range live {
			if d.ids[k] == d.seen {
				d.sel = append(d.sel, ri)
				d.seen++
			}
		}
		if len(d.sel) > 0 {
			d.out = Batch{N: b.N, Sel: d.sel, HasSel: true, Cols: b.Cols}
			return d.emit(&d.out), nil
		}
	}
}

func (d *distinctSource) close() {
	d.in.close()
	d.release(&d.acct)
	d.keys = keyIndex{}
}

// vecDistinct compiles DISTINCT over a batch source into a distinct
// source. Its fragment passes the input's batch columns through.
func (b *Builder) vecDistinct(n *plan.Distinct) (*vecFrag, string) {
	in, _ := b.vecFragment(n.Input)
	if in == nil {
		return nil, ""
	}
	in.spec.need(in.spec.proj)
	return passFrag(&distinctSource{in: in.spec, gov: b.gov}, in, n), ""
}
