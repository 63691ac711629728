package exec

import (
	"fmt"
	"sort"

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
// particular) can stop early without materializing the whole table.
// When range constraints are attached (extracted from a filter directly
// above the scan), zone-mapped blocks that cannot match are skipped.
type scanIter struct {
	snap   *storage.Snapshot
	ords   []int
	ranges []storage.ColRange
	pos    int
	gov    *Governance
	stride govStride
}

func (s *scanIter) Open() error {
	s.pos = 0
	s.stride = govStride{gov: s.gov}
	return s.gov.point(PointScan)
}

func (s *scanIter) Next() (types.Row, bool, error) {
	if err := s.stride.tick(); err != nil {
		return nil, false, err
	}
	var r int
	if len(s.ranges) > 0 {
		r = s.snap.NextVisiblePruned(s.pos, s.ranges)
	} else {
		r = s.snap.NextVisible(s.pos)
	}
	if r < 0 {
		return nil, false, nil
	}
	s.pos = r + 1
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
	type entry struct {
		groupVals types.Row
		states    []aggState
	}
	table := make(map[string]*entry)
	var order []*entry
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
		e, ok := table[string(keyBuf)]
		if !ok {
			groupVals := make(types.Row, len(g.groupIdx))
			for i, idx := range g.groupIdx {
				groupVals[i] = row[idx]
			}
			e = &entry{groupVals: groupVals, states: make([]aggState, len(g.aggs))}
			table[string(keyBuf)] = e
			order = append(order, e)
			if err := g.acct.add(int64(len(keyBuf)) + rowBytes(groupVals) + int64(len(g.aggs))*aggStateBytes); err != nil {
				return err
			}
		}
		for i := range g.aggs {
			if err := accumulate(&e.states[i], &g.aggs[i], row, &g.acct); err != nil {
				return err
			}
		}
	}
	if len(order) == 0 && g.scalarAgg {
		order = append(order, &entry{states: make([]aggState, len(g.aggs))})
	}
	for _, e := range order {
		out := make(types.Row, 0, len(e.groupVals)+len(g.aggs))
		out = append(out, e.groupVals...)
		for i := range g.aggs {
			v, err := finalize(&e.states[i], &g.aggs[i])
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
// first ascending (last descending), matching sortIter's historical
// behavior.
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

type sortIter struct {
	input Iterator
	keys  []sortKeySpec
	rows  []types.Row
	pos   int
	gov   *Governance
	acct  memAcct
}

func (s *sortIter) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	s.acct = memAcct{gov: s.gov}
	if err := s.gov.point(PointSort); err != nil {
		return err
	}
	rows, err := drainRows(s.input, s.gov, &s.acct)
	if err != nil {
		return err
	}
	s.rows = rows
	var sortErr error
	sort.SliceStable(s.rows, func(i, j int) bool {
		c, err := compareRows(s.rows[i], s.rows[j], s.keys)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return sortErr
	}
	s.pos = 0
	return nil
}

func (s *sortIter) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *sortIter) Close() {
	s.input.Close()
	s.acct.close()
	s.rows = nil
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
