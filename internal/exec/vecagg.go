package exec

import (
	"vdm/internal/decimal"
	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized aggregation: group-by and scalar aggregates folded directly
// from column batches. Grouping happens on dictionary codes where the
// single group column is a string (one decode per distinct code per
// dictionary view, memoized), and the typed accumulators fold
// int/float/decimal vectors without boxing. Group values are decoded
// only when a group is first seen — never per input row. The fold keeps the row path's
// aggState machine (accumulateValue, finalize), so the output is
// bit-identical to the row operators (first-seen group order, NULL
// handling, sum type promotion, and all).

// vecAggCol is one aggregate compiled against batch columns. gspec
// carries the op/star/typ triple in the shape accumulateValue and
// finalize expect, so the vector fold reuses the row path's state
// machine exactly.
type vecAggCol struct {
	op    plan.AggOp
	star  bool
	col   int // batch column of the argument; unused when star
	gspec groupSpec
}

// vecAggSpec describes a full aggregation over a batch source.
type vecAggSpec struct {
	spec      *vecSpec
	groupCols []int // batch columns of the group-by keys
	aggs      []vecAggCol
	scalarAgg bool // no group columns: always emit one row
}

// pgEntry is one group's aggregate state: its key encoding, the boxed
// group values, and one aggState per aggregate.
type pgEntry struct {
	key       string
	groupVals types.Row
	states    []aggState
}

// vecAggTable folds batches into an ordered aggregate table, in
// first-seen group order.
type vecAggTable struct {
	va    *vecAggSpec
	table map[string]*pgEntry
	order []*pgEntry
	// acct meters every freshly-created group against the query budget.
	acct *memAcct

	keyBuf []byte
	valBuf []types.Value
	all    []int32

	// Single-string-group fast path: per-view memo from dictionary code
	// to group entry. strGroup caches the shape check.
	strGroup bool
	codeEnt  epochMemo[*pgEntry]
	nullEnt  *pgEntry
}

func newVecAggTable(va *vecAggSpec, acct *memAcct) *vecAggTable {
	t := &vecAggTable{va: va, table: make(map[string]*pgEntry), acct: acct}
	t.strGroup = len(va.groupCols) == 1 && !va.scalarAgg
	return t
}

// fold drains the source into the table.
func (t *vecAggTable) fold() error {
	return forEachBatch(t.va.spec, t.foldBatch)
}

// added meters a freshly-created group.
func (t *vecAggTable) added(e *pgEntry) error {
	return t.acct.add(int64(len(e.key)) + rowBytes(e.groupVals) + int64(len(t.va.aggs))*aggStateBytes)
}

// foldBatch folds one batch's live rows into the table.
func (t *vecAggTable) foldBatch(b *Batch) error {
	rows := liveRows(b, &t.all)
	if len(rows) == 0 {
		return nil
	}
	va := t.va
	if va.scalarAgg {
		return t.foldScalar(b, rows)
	}
	if t.strGroup {
		// Computed string vectors carry materialized Strs instead of
		// dictionary codes; only dictionary-backed columns (scanned, or
		// gathered from a join's build-local dictionary) use the memo.
		if gv := &b.Cols[va.groupCols[0]]; gv.Typ == types.TString && len(gv.Strs) == 0 {
			return t.foldStringGroup(b, gv, rows)
		}
	}
	// Any other grouping encodes each live row's group key (the same
	// Value.AppendKey encoding the row operators use, so group identity
	// is identical).
	for _, ri := range rows {
		e, err := t.entryFor(b, int(ri))
		if err != nil {
			return err
		}
		if err := t.accumRow(b, e, int(ri)); err != nil {
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
	if len(t.order) == 0 {
		e := &pgEntry{states: make([]aggState, len(t.va.aggs))}
		t.order = append(t.order, e)
		if err := t.added(e); err != nil {
			return err
		}
	}
	e := t.order[0]
	for i := range t.va.aggs {
		a := &t.va.aggs[i]
		st := &e.states[i]
		if a.star {
			st.count += int64(len(rows))
			continue
		}
		v := &b.Cols[a.col]
		for _, ri := range rows {
			if err := vecAccumulate(st, a, v, int(ri)); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldStringGroup folds a single-string-column grouping on dictionary
// codes: each distinct code is decoded and looked up in the global table
// once per dictionary view, then every further row with that code hits
// the memo.
func (t *vecAggTable) foldStringGroup(b *Batch, gv *types.Vec, rows []int32) error {
	t.codeEnt.nextView(gv.Dict)
	hasNulls := len(gv.Nulls) > 0
	for _, r := range rows {
		ri := int(r)
		var e *pgEntry
		var err error
		switch {
		case hasNulls && gv.NullAt(ri):
			// NULL group values are stable across batches; the entry is
			// cached directly rather than through the code memo.
			if t.nullEnt == nil {
				if t.nullEnt, err = t.entryFor(b, ri); err != nil {
					return err
				}
			}
			e = t.nullEnt
		default:
			code := gv.Codes[ri]
			var ok bool
			if e, ok = t.codeEnt.get(code); !ok {
				if e, err = t.entryFor(b, ri); err != nil {
					return err
				}
				t.codeEnt.put(code, e)
			}
		}
		if err := t.accumRow(b, e, ri); err != nil {
			return err
		}
	}
	return nil
}

// entryFor resolves (creating if needed) the group entry for row ri,
// boxing and key-encoding the group values. Creation order is first-seen
// order, which the batch sweep visits in serial scan order.
func (t *vecAggTable) entryFor(b *Batch, ri int) (*pgEntry, error) {
	t.keyBuf = t.keyBuf[:0]
	t.valBuf = t.valBuf[:0]
	for _, ci := range t.va.groupCols {
		v := b.Cols[ci].Value(ri)
		t.valBuf = append(t.valBuf, v)
		t.keyBuf = v.AppendKey(t.keyBuf)
	}
	e, ok := t.table[string(t.keyBuf)]
	if !ok {
		groupVals := make(types.Row, len(t.valBuf))
		copy(groupVals, t.valBuf)
		e = &pgEntry{key: string(t.keyBuf), groupVals: groupVals, states: make([]aggState, len(t.va.aggs))}
		t.table[e.key] = e
		t.order = append(t.order, e)
		if err := t.added(e); err != nil {
			return nil, err
		}
	}
	return e, nil
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
		if err := vecAccumulate(st, a, &b.Cols[a.col], ri); err != nil {
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
func vecAccumulate(st *aggState, a *vecAggCol, v *types.Vec, ri int) error {
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
	return accumulateValue(st, &a.gspec, v.Value(ri))
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
	order := t.order
	if len(order) == 0 && g.va.scalarAgg {
		order = append(order, &pgEntry{states: make([]aggState, len(g.va.aggs))})
	}
	for _, e := range order {
		out := make(types.Row, 0, len(e.groupVals)+len(g.va.aggs))
		out = append(out, e.groupVals...)
		for i := range g.va.aggs {
			v, err := finalize(&e.states[i], &g.va.aggs[i].gspec)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		if err := g.acct.add(rowBytes(out)); err != nil {
			return err
		}
		g.groups = append(g.groups, out)
	}
	g.pos = 0
	return nil
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
