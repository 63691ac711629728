package exec

import (
	"fmt"

	"vdm/internal/decimal"
	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Iterator is the pull-based operator interface.
type Iterator interface {
	// Open prepares the iterator (building hash tables etc.).
	Open() error
	// Next returns the next row; ok=false at end of stream.
	Next() (row types.Row, ok bool, err error)
	// Close releases resources.
	Close()
}

// --- scan -------------------------------------------------------------

// scanIter streams visible rows lazily so operators above (LIMIT in
// particular) can stop early without materializing the whole table: it
// collects visible positions DefaultBatchSize storage positions at a
// time (one table lock per chunk) and reads each row's values only when
// the row is pulled. When range constraints are attached (extracted
// from a filter directly above the scan), zone-mapped blocks that
// cannot match are skipped.
type scanIter struct {
	snap       *storage.Snapshot
	ords       []int
	ranges     []storage.ColRange
	idx        []int // visible positions of the current chunk
	i          int   // next entry of idx
	pos, total int   // next storage position to collect; the end
	gov        *Governance
	stride     govStride
}

func (s *scanIter) Open() error {
	s.idx, s.i, s.pos, s.total = s.idx[:0], 0, 0, s.snap.NumRowVersions()
	s.stride = govStride{gov: s.gov}
	return s.gov.point(PointScan)
}

func (s *scanIter) Next() (types.Row, bool, error) {
	if err := s.stride.tick(); err != nil {
		return nil, false, err
	}
	for s.i == len(s.idx) {
		if s.pos >= s.total {
			return nil, false, nil
		}
		s.idx, s.pos = s.snap.CollectVisible(s.pos, s.pos+DefaultBatchSize, s.ranges, s.idx[:0])
		s.i = 0
	}
	r := s.idx[s.i]
	s.i++
	out := make(types.Row, len(s.ords))
	s.snap.ValuesInto(r, s.ords, out)
	return out, true, nil
}

func (s *scanIter) Close() {}

// --- filter -----------------------------------------------------------

type filterIter struct {
	input Iterator
	cond  EvalFn
}

func (f *filterIter) Open() error { return f.input.Open() }

func (f *filterIter) Next() (types.Row, bool, error) {
	for {
		row, ok, err := f.input.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		v, err := f.cond(row)
		if err != nil {
			return nil, false, err
		}
		if !v.IsNull() && v.Bool() {
			return row, true, nil
		}
	}
}

func (f *filterIter) Close() { f.input.Close() }

// --- project ----------------------------------------------------------

type projectIter struct {
	input Iterator
	exprs []EvalFn
}

func (p *projectIter) Open() error { return p.input.Open() }

func (p *projectIter) Next() (types.Row, bool, error) {
	row, ok, err := p.input.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	out := make(types.Row, len(p.exprs))
	for i, fn := range p.exprs {
		v, err := fn(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *projectIter) Close() { p.input.Close() }

// drainRows materializes every row of an open iterator, metering the
// buffered bytes against the query budget and checking cancellation at
// batch granularity (gov and acct may be nil/inert).
func drainRows(it Iterator, gov *Governance, acct *memAcct) ([]types.Row, error) {
	stride := govStride{gov: gov}
	var rows []types.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if acct != nil {
			if err := acct.add(rowBytes(row)); err != nil {
				return nil, err
			}
		}
		if err := stride.tick(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
}

// --- group by ---------------------------------------------------------

type aggState struct {
	count    int64
	sumInt   int64
	sumFloat float64
	sumDec   decimal.Decimal
	sumTyp   types.Type
	sawVal   bool
	min, max types.Value
	distinct map[string]bool
}

// pgEntry is one group's aggregate state: the boxed group values, and
// one aggState per aggregate.
type pgEntry struct {
	groupVals types.Row
	states    []aggState
}

type groupSpec struct {
	op       plan.AggOp
	arg      EvalFn // nil for COUNT(*)
	star     bool
	distinct bool
	typ      types.Type
}

type groupByIter struct {
	input     Iterator
	groupIdx  []int // positions of group cols in input rows
	aggs      []groupSpec
	scalarAgg bool // no group cols: always emit one row
	gov       *Governance
	acct      memAcct

	groups []types.Row
	pos    int
}

// aggStateBytes is the charged footprint of one aggregate state within
// a group entry (struct plus map header slack; DISTINCT values are
// metered separately as they are inserted).
const aggStateBytes = 96

func (g *groupByIter) Open() error {
	if err := g.input.Open(); err != nil {
		return err
	}
	g.acct = memAcct{gov: g.gov}
	if err := g.gov.point(PointGroupMerge); err != nil {
		return err
	}
	index := make(map[string]int)
	var entries []pgEntry
	var keyBuf []byte
	stride := govStride{gov: g.gov}
	for {
		row, ok, err := g.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := stride.tick(); err != nil {
			return err
		}
		keyBuf = keyBuf[:0]
		for _, idx := range g.groupIdx {
			keyBuf = row[idx].AppendKey(keyBuf)
		}
		id, ok := index[string(keyBuf)]
		if !ok {
			groupVals := make(types.Row, len(g.groupIdx))
			for i, idx := range g.groupIdx {
				groupVals[i] = row[idx]
			}
			id = len(entries)
			index[string(keyBuf)] = id
			entries = append(entries, pgEntry{groupVals: groupVals, states: make([]aggState, len(g.aggs))})
			if err := g.acct.add(int64(len(keyBuf)) + rowBytes(groupVals) + int64(len(g.aggs))*aggStateBytes); err != nil {
				return err
			}
		}
		e := &entries[id]
		for i := range g.aggs {
			if err := accumulate(&e.states[i], &g.aggs[i], row, &g.acct); err != nil {
				return err
			}
		}
	}
	var err error
	g.groups, err = emitGroups(entries, g.aggs, g.scalarAgg, &g.acct)
	g.pos = 0
	return err
}

// accumulate folds one row into an aggregation state; acct (never nil)
// meters DISTINCT seen-set growth against the query budget.
func accumulate(st *aggState, spec *groupSpec, row types.Row, acct *memAcct) error {
	if spec.star {
		st.count++
		return nil
	}
	v, err := spec.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if spec.distinct {
		if st.distinct == nil {
			st.distinct = make(map[string]bool)
		}
		key := string(v.AppendKey(nil))
		if st.distinct[key] {
			return nil
		}
		st.distinct[key] = true
		if err := acct.add(int64(len(key)) + 48); err != nil {
			return err
		}
	}
	st.count++
	return accumulateValue(st, spec, v)
}

// accumulateValue folds one non-NULL, distinct-deduplicated value into
// the aggregation state (the count has already been bumped).
func accumulateValue(st *aggState, spec *groupSpec, v types.Value) error {
	switch spec.op {
	case plan.AggSum, plan.AggAvg:
		switch v.Typ {
		case types.TInt:
			if st.sawVal && st.sumTyp == types.TFloat {
				st.sumFloat += float64(v.Int())
			} else {
				st.sumInt += v.Int()
				st.sumTyp = types.TInt
			}
		case types.TFloat:
			if st.sumTyp == types.TInt {
				st.sumFloat = float64(st.sumInt)
			}
			st.sumFloat += v.Float()
			st.sumTyp = types.TFloat
		case types.TDecimal:
			st.sumDec = st.sumDec.Add(v.Decimal())
			st.sumTyp = types.TDecimal
		default:
			return fmt.Errorf("exec: SUM/AVG on %s", v.Typ)
		}
		st.sawVal = true
	case plan.AggMin:
		if !st.sawVal {
			st.min = v
			st.sawVal = true
		} else if c, err := types.Compare(v, st.min); err == nil && c < 0 {
			st.min = v
		}
	case plan.AggMax:
		if !st.sawVal {
			st.max = v
			st.sawVal = true
		} else if c, err := types.Compare(v, st.max); err == nil && c > 0 {
			st.max = v
		}
	case plan.AggCount:
		// count accumulated above
	}
	return nil
}

func finalize(st *aggState, spec *groupSpec) (types.Value, error) {
	switch spec.op {
	case plan.AggCount:
		return types.NewInt(st.count), nil
	case plan.AggSum:
		if !st.sawVal {
			return types.NewNull(spec.typ), nil
		}
		switch st.sumTyp {
		case types.TInt:
			return types.NewInt(st.sumInt), nil
		case types.TFloat:
			return types.NewFloat(st.sumFloat), nil
		case types.TDecimal:
			return types.NewDecimal(st.sumDec), nil
		}
	case plan.AggAvg:
		if !st.sawVal || st.count == 0 {
			return types.NewNull(spec.typ), nil
		}
		switch st.sumTyp {
		case types.TInt:
			return types.NewFloat(float64(st.sumInt) / float64(st.count)), nil
		case types.TFloat:
			return types.NewFloat(st.sumFloat / float64(st.count)), nil
		case types.TDecimal:
			scale := st.sumDec.Scale + 6
			if scale > decimal.MaxScale {
				scale = decimal.MaxScale
			}
			q, err := st.sumDec.Div(decimal.FromInt(st.count), scale)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDecimal(q), nil
		}
	case plan.AggMin:
		if !st.sawVal {
			return types.NewNull(spec.typ), nil
		}
		return st.min, nil
	case plan.AggMax:
		if !st.sawVal {
			return types.NewNull(spec.typ), nil
		}
		return st.max, nil
	}
	return types.Value{}, fmt.Errorf("exec: unknown aggregate")
}

// emitGroups finalizes each group's aggregate states into an output row
// (its group values, then its aggregates), in entry order, metering every
// row. A scalar aggregate over no input emits one row of empty states.
// It is the one group emitter of the row and batch aggregations.
func emitGroups(entries []pgEntry, aggs []groupSpec, scalarAgg bool, acct *memAcct) ([]types.Row, error) {
	if len(entries) == 0 && scalarAgg {
		entries = []pgEntry{{states: make([]aggState, len(aggs))}}
	}
	out := make([]types.Row, 0, len(entries))
	for k := range entries {
		e := &entries[k]
		row := make(types.Row, 0, len(e.groupVals)+len(aggs))
		row = append(row, e.groupVals...)
		for i := range aggs {
			v, err := finalize(&e.states[i], &aggs[i])
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		if err := acct.add(rowBytes(row)); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func (g *groupByIter) Next() (types.Row, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, false, nil
	}
	row := g.groups[g.pos]
	g.pos++
	return row, true, nil
}

func (g *groupByIter) Close() {
	g.input.Close()
	g.acct.close()
	g.groups = nil
}

// --- union all --------------------------------------------------------

type unionIter struct {
	children []Iterator
	cur      int
}

func (u *unionIter) Open() error {
	for _, c := range u.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	u.cur = 0
	return nil
}

func (u *unionIter) Next() (types.Row, bool, error) {
	for u.cur < len(u.children) {
		row, ok, err := u.children[u.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		u.cur++
	}
	return nil, false, nil
}

func (u *unionIter) Close() {
	for _, c := range u.children {
		c.Close()
	}
}

// --- sort -------------------------------------------------------------

// sortKeySpec names one ORDER BY key: column position and direction.
type sortKeySpec struct {
	idx  int
	desc bool
}

// compareRows orders two rows under the given sort keys. NULLs sort
// first ascending (last descending).
func compareRows(a, b types.Row, keys []sortKeySpec) (int, error) {
	for _, k := range keys {
		va, vb := a[k.idx], b[k.idx]
		switch {
		case va.IsNull() && vb.IsNull():
			continue
		case va.IsNull():
			if k.desc {
				return 1, nil
			}
			return -1, nil
		case vb.IsNull():
			if k.desc {
				return -1, nil
			}
			return 1, nil
		}
		c, err := types.Compare(va, vb)
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if k.desc {
			return -c, nil
		}
		return c, nil
	}
	return 0, nil
}

// --- limit ------------------------------------------------------------

type limitIter struct {
	input   Iterator
	count   int64 // -1 = unlimited
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitIter) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open()
}

func (l *limitIter) Next() (types.Row, bool, error) {
	for l.skipped < l.offset {
		_, ok, err := l.input.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		l.skipped++
	}
	if l.count >= 0 && l.emitted >= l.count {
		return nil, false, nil
	}
	row, ok, err := l.input.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	l.emitted++
	return row, true, nil
}

func (l *limitIter) Close() { l.input.Close() }

// --- distinct ---------------------------------------------------------

type distinctIter struct {
	input  Iterator
	seen   map[string]bool
	keyBuf []byte
	gov    *Governance
	acct   memAcct
	stride govStride
}

func (d *distinctIter) Open() error {
	d.seen = make(map[string]bool)
	d.acct = memAcct{gov: d.gov}
	d.stride = govStride{gov: d.gov}
	return d.input.Open()
}

func (d *distinctIter) Next() (types.Row, bool, error) {
	for {
		row, ok, err := d.input.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		if err := d.stride.tick(); err != nil {
			return nil, false, err
		}
		d.keyBuf = types.AppendRowKey(d.keyBuf[:0], row)
		if d.seen[string(d.keyBuf)] {
			continue
		}
		d.seen[string(d.keyBuf)] = true
		if err := d.acct.add(int64(len(d.keyBuf)) + 48); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

func (d *distinctIter) Close() {
	d.input.Close()
	d.acct.close()
	d.seen = nil
}

// --- values -----------------------------------------------------------

type valuesIter struct {
	rows []types.Row
	pos  int
}

func (v *valuesIter) Open() error { v.pos = 0; return nil }

func (v *valuesIter) Next() (types.Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	row := v.rows[v.pos]
	v.pos++
	return row, true, nil
}

func (v *valuesIter) Close() {}
