// Package stats implements the planner's cardinality estimation:
// filter selectivities and join output sizes computed from the
// statistics internal/storage maintains (visible row counts, distinct
// counts from the dictionary encodings and unique indexes, min/max from
// zone maps, null counts).
//
// The paper's §7 cardinality specifications exist because estimators
// routinely lack these numbers for augmentation joins; accordingly a
// parsed spec on a join is treated as authoritative and overrides the
// statistical estimate for that join.
package stats

import (
	"math"

	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// Fallbacks when no statistic constrains an expression. Chosen to match
// the classical System R defaults.
const (
	// DefaultTableRows is assumed for tables with no statistics.
	DefaultTableRows = 1000.0
	defaultEqSel     = 0.1
	defaultRangeSel  = 0.3
	defaultSel       = 0.25
	defaultSemiSel   = 0.5
)

// colInfo is a column's statistics plus the visible row count of the
// table it came from (for null fractions).
type colInfo struct {
	types.ColStats
	tableRows float64
}

// Estimator computes per-operator row-count estimates over a plan tree.
// It memoizes per node, and keeps a query-global column-statistics map:
// ColumnIDs are unique within a query, so statistics registered at a
// Scan remain addressable from any ancestor operator.
type Estimator struct {
	est  map[plan.Node]float64
	cols map[types.ColumnID]colInfo
}

// Estimates exposes the memo of every estimate computed so far, keyed
// by plan node. The engine stores it on the Plan for EXPLAIN.
func (e *Estimator) Estimates() map[plan.Node]float64 { return e.est }

// New returns an empty estimator for one plan tree.
func New() *Estimator {
	return &Estimator{
		est:  map[plan.Node]float64{},
		cols: map[types.ColumnID]colInfo{},
	}
}

// EstRows returns the estimated number of rows n produces. Estimates
// are memoized, so repeated calls (and calls on shared subtrees during
// join reordering) are cheap.
func (e *Estimator) EstRows(n plan.Node) float64 {
	if v, ok := e.est[n]; ok {
		return v
	}
	v := e.estimate(n)
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	e.est[n] = v
	return v
}

func (e *Estimator) estimate(n plan.Node) float64 {
	switch n := n.(type) {
	case *plan.Scan:
		if n.Info.Stats == nil {
			return DefaultTableRows
		}
		st := n.Info.Stats
		for i, id := range n.Cols {
			ord := n.Ords[i]
			if ord < len(st.Cols) {
				e.cols[id] = colInfo{ColStats: st.Cols[ord], tableRows: float64(st.Rows)}
			}
		}
		return float64(st.Rows)

	case *plan.Filter:
		in := e.EstRows(n.Input)
		return in * e.Selectivity(n.Cond)

	case *plan.Project:
		in := e.EstRows(n.Input)
		// Pass-through columns keep their source statistics.
		for _, c := range n.Cols {
			if cr, ok := c.Expr.(*plan.ColRef); ok {
				if ci, ok := e.cols[cr.ID]; ok {
					e.cols[c.ID] = ci
				}
			}
		}
		return in

	case *plan.Join:
		return e.estJoin(n)

	case *plan.GroupBy:
		in := e.EstRows(n.Input)
		if len(n.GroupCols) == 0 {
			return 1
		}
		groups := 1.0
		for _, gc := range n.GroupCols {
			groups *= e.colDistinct(gc, in)
		}
		return math.Min(groups, in)

	case *plan.Distinct:
		in := e.EstRows(n.Input)
		groups := 1.0
		for _, c := range n.Input.Columns() {
			groups *= e.colDistinct(c, in)
		}
		return math.Min(groups, in)

	case *plan.UnionAll:
		sum := 0.0
		for _, c := range n.Children {
			sum += e.EstRows(c)
		}
		return sum

	case *plan.Sort:
		return e.EstRows(n.Input)

	case *plan.Limit:
		in := e.EstRows(n.Input)
		if n.Offset > 0 {
			in = math.Max(in-float64(n.Offset), 0)
		}
		if n.Count >= 0 {
			in = math.Min(in, float64(n.Count))
		}
		return in

	case *plan.Values:
		return float64(len(n.Rows))
	}
	return DefaultTableRows
}

// colDistinct returns the effective distinct count of a column within
// an input producing rows rows: the base statistic capped by the row
// count (a filtered input cannot carry more distinct values than rows),
// with a square-root heuristic when the statistic is unknown.
func (e *Estimator) colDistinct(id types.ColumnID, rows float64) float64 {
	if rows < 1 {
		rows = 1
	}
	if ci, ok := e.cols[id]; ok && ci.Distinct > 0 {
		return math.Min(float64(ci.Distinct), rows)
	}
	return math.Max(math.Sqrt(rows), 1)
}

// estJoin estimates a join's output size: the classical
// |L|·|R| / max(dv(l), dv(r)) per equi-key conjunct, residual conjuncts
// as filter selectivities, then the §7 cardinality specification as an
// authoritative override.
func (e *Estimator) estJoin(j *plan.Join) float64 {
	l := e.EstRows(j.Left)
	r := e.EstRows(j.Right)
	if j.Kind == plan.CrossJoin {
		return l * r
	}
	leftCols := plan.ColumnsOf(j.Left)
	rightCols := plan.ColumnsOf(j.Right)

	if j.Kind == plan.SemiJoin || j.Kind == plan.AntiJoin {
		sel := defaultSemiSel
		if lc, rc, ok := firstEquiColPair(j.Cond, leftCols, rightCols); ok {
			ldv := e.colDistinct(lc, l)
			rdv := e.colDistinct(rc, r)
			if ldv > 0 {
				sel = math.Min(rdv/ldv, 1)
			}
		}
		if j.Kind == plan.AntiJoin {
			sel = 1 - sel
		}
		return l * sel
	}

	est := l * r
	for _, conj := range plan.Conjuncts(j.Cond) {
		if lc, rc, generic, isEqui := equiConjunct(conj, leftCols, rightCols); isEqui {
			dv := math.Max(1, math.Min(l, r)) // unknown key statistics
			if !generic {
				dv = math.Max(e.colDistinct(lc, l), e.colDistinct(rc, r))
			}
			if dv > 0 {
				est /= dv
			}
		} else {
			est *= e.Selectivity(conj)
		}
	}

	// §7 cardinality specifications are authoritative: the application
	// declared how many partners each side has, so the declared bound
	// replaces the statistical estimate.
	switch {
	case j.Card.Right == sql.CardExactOne && j.Card.Left == sql.CardExactOne:
		est = math.Min(l, r)
	case j.Card.Right == sql.CardExactOne:
		est = l
	case j.Card.Left == sql.CardExactOne:
		est = r
	default:
		if j.Card.Right == sql.CardOne {
			est = math.Min(est, l)
		}
		if j.Card.Left == sql.CardOne {
			est = math.Min(est, r)
		}
	}
	if j.Kind == plan.LeftOuterJoin {
		est = math.Max(est, l)
	}
	return est
}

// equiConjunct reports whether conj is an equality whose sides split
// across the join inputs. When both sides are bare column references it
// returns them; generic marks equi conjuncts over computed expressions
// (no per-column statistics apply).
func equiConjunct(conj plan.Expr, leftCols, rightCols types.ColSet) (lc, rc types.ColumnID, generic, isEqui bool) {
	eq, ok := conj.(*plan.Bin)
	if !ok || eq.Op != "=" {
		return 0, 0, false, false
	}
	le, re := eq.L, eq.R
	lUsed, rUsed := plan.ColsUsed(le), plan.ColsUsed(re)
	if lUsed.SubsetOf(rightCols) && rUsed.SubsetOf(leftCols) {
		le, re = re, le
		lUsed, rUsed = rUsed, lUsed
	} else if !(lUsed.SubsetOf(leftCols) && rUsed.SubsetOf(rightCols)) {
		return 0, 0, false, false
	}
	if lUsed.Empty() || rUsed.Empty() {
		return 0, 0, false, false
	}
	lr, lok := le.(*plan.ColRef)
	rr, rok := re.(*plan.ColRef)
	if lok && rok {
		return lr.ID, rr.ID, false, true
	}
	return 0, 0, true, true
}

// firstEquiColPair returns the first column-to-column equi conjunct.
func firstEquiColPair(cond plan.Expr, leftCols, rightCols types.ColSet) (lc, rc types.ColumnID, ok bool) {
	for _, conj := range plan.Conjuncts(cond) {
		if l, r, generic, isEqui := equiConjunct(conj, leftCols, rightCols); isEqui && !generic {
			return l, r, true
		}
	}
	return 0, 0, false
}

// Selectivity estimates the fraction of rows a boolean expression keeps.
func (e *Estimator) Selectivity(x plan.Expr) float64 {
	s := e.selectivity(x)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func (e *Estimator) selectivity(x plan.Expr) float64 {
	switch x := x.(type) {
	case *plan.Bin:
		switch x.Op {
		case "AND":
			return e.selectivity(x.L) * e.selectivity(x.R)
		case "OR":
			a, b := e.selectivity(x.L), e.selectivity(x.R)
			return a + b - a*b
		case "=":
			return e.eqSelectivity(x)
		case "<>":
			return 1 - e.eqSelectivity(x)
		case "<", "<=", ">", ">=":
			return e.rangeSelectivity(x)
		}
		return defaultSel
	case *plan.Un:
		if x.Op == "NOT" {
			return 1 - e.selectivity(x.E)
		}
		return defaultSel
	case *plan.IsNullExpr:
		frac := defaultEqSel
		if cr, ok := x.E.(*plan.ColRef); ok {
			if ci, ok := e.cols[cr.ID]; ok && ci.tableRows > 0 {
				frac = float64(ci.Nulls) / ci.tableRows
			}
		}
		if x.Not {
			return 1 - frac
		}
		return frac
	case *plan.InListExpr:
		per := defaultEqSel
		if cr, ok := x.E.(*plan.ColRef); ok {
			if ci, ok := e.cols[cr.ID]; ok && ci.Distinct > 0 {
				per = 1 / float64(ci.Distinct)
			}
		}
		s := math.Min(per*float64(len(x.List)), 1)
		if x.Not {
			return 1 - s
		}
		return s
	case *plan.Const:
		if !x.Val.IsNull() && x.Val.Typ == types.TBool {
			if x.Val.Bool() {
				return 1
			}
			return 0
		}
		return defaultSel
	case *plan.ColRef:
		return 0.5 // bare boolean column
	}
	return defaultSel
}

// eqSelectivity estimates `L = R`.
func (e *Estimator) eqSelectivity(x *plan.Bin) float64 {
	if cr, k, _, ok := plan.ColConstCmp(x); ok && !k.IsNull() {
		ci, have := e.cols[cr.ID]
		if have && ci.HasMinMax && outsideRange(k, ci) {
			return 0
		}
		if have && ci.Distinct > 0 {
			return 1 / float64(ci.Distinct)
		}
		return defaultEqSel
	}
	lr, lok := x.L.(*plan.ColRef)
	rr, rok := x.R.(*plan.ColRef)
	if lok && rok {
		dv := 0.0
		if ci, ok := e.cols[lr.ID]; ok {
			dv = float64(ci.Distinct)
		}
		if ci, ok := e.cols[rr.ID]; ok {
			dv = math.Max(dv, float64(ci.Distinct))
		}
		if dv > 0 {
			return 1 / dv
		}
	}
	return defaultEqSel
}

// rangeSelectivity estimates `col op const` as the covered fraction of
// the column's [min, max] interval.
func (e *Estimator) rangeSelectivity(x *plan.Bin) float64 {
	cr, k, op, ok := plan.ColConstCmp(x)
	if !ok || k.IsNull() {
		return defaultRangeSel
	}
	ci, have := e.cols[cr.ID]
	if !have || !ci.HasMinMax {
		return defaultRangeSel
	}
	lo, okLo := numeric(ci.Min)
	hi, okHi := numeric(ci.Max)
	v, okV := numeric(k)
	if !okLo || !okHi || !okV || hi <= lo {
		return defaultRangeSel
	}
	var frac float64
	switch op {
	case "<", "<=":
		frac = (v - lo) / (hi - lo)
	case ">", ">=":
		frac = (hi - v) / (hi - lo)
	}
	return math.Max(0, math.Min(frac, 1))
}

// outsideRange reports whether constant v provably falls outside the
// column's [min, max].
func outsideRange(v types.Value, ci colInfo) bool {
	if c, err := types.Compare(v, ci.Min); err == nil && c < 0 {
		return true
	}
	if c, err := types.Compare(v, ci.Max); err == nil && c > 0 {
		return true
	}
	return false
}

// numeric converts an orderable value to float64 for interval math.
func numeric(v types.Value) (float64, bool) {
	if v.IsNull() {
		return 0, false
	}
	switch v.Typ {
	case types.TInt, types.TDate:
		return float64(v.Int()), true
	case types.TFloat:
		return v.Float(), true
	case types.TDecimal:
		d := v.Decimal()
		return float64(d.Coef) / math.Pow10(int(d.Scale)), true
	}
	return 0, false
}
