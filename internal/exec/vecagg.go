package exec

import (
	"vdm/internal/decimal"
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized aggregation: group-by and scalar aggregates folded directly
// from column batches. A keyIndex numbers each batch's group keys (a
// dictionary-coded string decoded once per code per dictionary view),
// and the typed accumulators fold int/float/decimal vectors without
// boxing. Group values are boxed only when a group is first seen —
// never per input row. The fold keeps the row path's aggState machine
// (accumulateValue, finalize), so the output is bit-identical to the
// row operators (first-seen group order, NULL handling, sum type
// promotion, and all).

// vecAggSpec describes a full aggregation over a batch source. Its
// aggregates are groupSpecs, as the row path's, so the vector fold reuses
// the row path's state machine (accumulateValue, finalize) exactly; their
// arguments are the batch columns argCols instead of compiled functions.
type vecAggSpec struct {
	spec      *vecSpec
	groupCols []int // batch columns of the group-by keys
	aggs      []groupSpec
	argCols   []int // batch column of each aggregate's argument; unused when star
	scalarAgg bool  // no group columns: always emit one row
}

// vecAggTable folds batches into an aggregate table: entries[id] is the
// group of key id, in first-seen group order.
type vecAggTable struct {
	va      *vecAggSpec
	keys    keyIndex
	entries []pgEntry
	// acct meters every freshly-created group against the query budget.
	acct *memAcct

	ids []int32
	all []int32
}

func newVecAggTable(va *vecAggSpec, acct *memAcct) *vecAggTable {
	t := &vecAggTable{va: va, acct: acct}
	if !va.scalarAgg {
		t.keys = newKeyIndex(len(va.groupCols), true, acct)
	}
	return t
}

// fold drains the source into the table.
func (t *vecAggTable) fold() error {
	return forEachBatch(t.va.spec, t.foldBatch)
}

// added meters a freshly-created group.
func (t *vecAggTable) added(e *pgEntry) error {
	return t.acct.add(rowBytes(e.groupVals) + int64(len(t.va.aggs))*aggStateBytes)
}

// foldBatch folds one batch's live rows into the table. A row whose key
// id is new opens the next group, boxing its group values.
func (t *vecAggTable) foldBatch(b *Batch) error {
	rows := liveRows(b, &t.all)
	if len(rows) == 0 {
		return nil
	}
	if t.va.scalarAgg {
		return t.foldScalar(b, rows)
	}
	var err error
	if t.ids, err = t.keys.insert(b, t.va.groupCols, rows, t.ids[:0]); err != nil {
		return err
	}
	for k, ri := range rows {
		id := int(t.ids[k])
		if id == len(t.entries) {
			vals := make(types.Row, len(t.va.groupCols))
			for i, ci := range t.va.groupCols {
				vals[i] = b.Cols[ci].Value(int(ri))
			}
			t.entries = append(t.entries, pgEntry{groupVals: vals, states: make([]aggState, len(t.va.aggs))})
			if err := t.added(&t.entries[id]); err != nil {
				return err
			}
		}
		if err := t.accumRow(b, &t.entries[id], int(ri)); err != nil {
			return err
		}
	}
	return nil
}

// foldScalar folds a no-group-columns aggregation: one entry, created on
// the first live row (the zero-row case is handled at finalize, exactly
// like the row operator). COUNT(*) aggregates advance by the batch's
// live-row count without touching any vector.
func (t *vecAggTable) foldScalar(b *Batch, rows []int32) error {
	if len(t.entries) == 0 {
		t.entries = append(t.entries, pgEntry{states: make([]aggState, len(t.va.aggs))})
		if err := t.added(&t.entries[0]); err != nil {
			return err
		}
	}
	e := &t.entries[0]
	for i := range t.va.aggs {
		a := &t.va.aggs[i]
		st := &e.states[i]
		if a.star {
			st.count += int64(len(rows))
			continue
		}
		v := &b.Cols[t.va.argCols[i]]
		for _, ri := range rows {
			if err := vecAccumulate(st, a, v, int(ri)); err != nil {
				return err
			}
		}
	}
	return nil
}

// accumRow folds row ri into the entry's aggregate states.
func (t *vecAggTable) accumRow(b *Batch, e *pgEntry, ri int) error {
	for i := range t.va.aggs {
		a := &t.va.aggs[i]
		st := &e.states[i]
		if a.star {
			st.count++
			continue
		}
		if err := vecAccumulate(st, a, &b.Cols[t.va.argCols[i]], ri); err != nil {
			return err
		}
	}
	return nil
}

// vecAccumulate folds one vector slot into an aggregate state. The
// int/float/decimal SUM/AVG paths are unboxed transcriptions of
// accumulateValue specialized by the statically-known column type; the
// equal-scale decimal add is identical to decimal.Add (alignment at
// equal scales is a raw coefficient add). Everything else boxes the slot
// and calls accumulateValue itself, so the semantics cannot drift.
func vecAccumulate(st *aggState, a *groupSpec, v *types.Vec, ri int) error {
	if len(v.Nulls) > 0 && v.NullAt(ri) {
		return nil // NULLs don't count and don't accumulate
	}
	st.count++
	switch a.op {
	case plan.AggSum, plan.AggAvg:
		switch v.Typ {
		case types.TInt:
			// A TInt column can never promote the sum to float.
			st.sumInt += v.I64[ri]
			st.sumTyp = types.TInt
			st.sawVal = true
			return nil
		case types.TFloat:
			st.sumFloat += v.F64[ri]
			st.sumTyp = types.TFloat
			st.sawVal = true
			return nil
		case types.TDecimal:
			sc := v.Scale[ri]
			if st.sawVal && st.sumDec.Scale == sc {
				st.sumDec.Coef += v.I64[ri]
			} else {
				st.sumDec = st.sumDec.Add(decimal.Decimal{Coef: v.I64[ri], Scale: sc})
			}
			st.sumTyp = types.TDecimal
			st.sawVal = true
			return nil
		}
	}
	return accumulateValue(st, a, v.Value(ri))
}

// vecGroupByIter is the batch aggregation operator: it drains its
// source's batches through one vecAggTable during Open, then streams the
// finalized groups. Output rows, group order, and governance metering
// are identical to groupByIter.
type vecGroupByIter struct {
	va  *vecAggSpec
	gov *Governance
	met *Metrics

	acct   memAcct
	groups []types.Row
	pos    int
}

func (g *vecGroupByIter) Open() error {
	g.acct = memAcct{gov: g.gov}
	if err := g.gov.point(PointGroupMerge); err != nil {
		return err
	}
	if g.met != nil {
		g.met.VecPipelines.Inc()
	}
	t := newVecAggTable(g.va, &g.acct)
	if err := t.fold(); err != nil {
		return err
	}
	var err error
	g.groups, err = emitGroups(t.entries, g.va.aggs, g.va.scalarAgg, &g.acct)
	g.pos = 0
	return err
}

func (g *vecGroupByIter) Next() (types.Row, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, false, nil
	}
	row := g.groups[g.pos]
	g.pos++
	return row, true, nil
}

func (g *vecGroupByIter) Close() {
	g.va.spec.close()
	g.acct.close()
	g.groups = nil
}

func (g *vecGroupByIter) buildStats() (int64, int64) { return rowSetBytes(g.groups) }
func (g *vecGroupByIter) memBytes() int64            { return g.acct.bytes() }
