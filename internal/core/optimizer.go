package core

import (
	"vdm/internal/exec"
	"vdm/internal/plan"
	"vdm/internal/stats"
	"vdm/internal/types"
)

// Optimizer rewrites logical plans under a capability profile.
type Optimizer struct {
	ctx     *plan.Context
	caps    Capability
	profile string
	// costing gates the statistics-driven pass (cost.go); est holds its
	// estimator after Optimize so callers can read the row estimates.
	costing bool
	est     *stats.Estimator

	// memo holds each node's derived facts for the Optimize call in
	// progress (memo.go); nil outside it.
	memo map[plan.Node]*facts
	// rewrites counts rewrites: a pass that leaves it unchanged ends the
	// fixpoint loop, and a walk that sees it move forgets the node it
	// visits.
	rewrites int
	// pins holds the lifted-literal slots the rewrites decided on (pin.go).
	pins map[int]bool

	// trace state, populated during Optimize
	pass          int
	events        []TraceEvent
	before, after plan.Stats
	passes        int
	derived       int
}

// NewOptimizer returns an optimizer for the given profile.
func NewOptimizer(ctx *plan.Context, profile Profile) *Optimizer {
	return &Optimizer{ctx: ctx, caps: profile.Caps, profile: profile.Name}
}

// Trace returns the names of the rules applied, in order.
func (o *Optimizer) Trace() []string {
	var names []string
	for _, e := range o.events {
		names = append(names, e.Rule)
	}
	return names
}

// Report returns the structured trace of the last Optimize call:
// before/after plan censuses, every rule application with its matched
// operator and join delta, and the rules this profile skipped for lack
// of capabilities.
func (o *Optimizer) Report() *Trace {
	return &Trace{
		Profile: o.profile,
		Before:  o.before,
		After:   o.after,
		Passes:  o.passes,
		Derived: o.derived,
		Events:  o.events,
		Skipped: skippedFor(o.caps),
	}
}

func (o *Optimizer) log(rule string) {
	o.events = append(o.events, TraceEvent{Pass: o.pass, Rule: rule})
}

// logEvent records a rule application with its matched operator and the
// number of joins the rewrite removed.
func (o *Optimizer) logEvent(rule string, op plan.Node, joinsRemoved int, detail string) {
	o.events = append(o.events, TraceEvent{
		Pass:         o.pass,
		Rule:         rule,
		Operator:     plan.Describe(o.ctx, op),
		JoinsRemoved: joinsRemoved,
		Detail:       detail,
	})
}

// maxPasses bounds the rewrite fixpoint loop.
const maxPasses = 12

// Optimize rewrites the plan to fixpoint. The root's output columns are
// preserved exactly (IDs and order).
func (o *Optimizer) Optimize(root plan.Node) plan.Node {
	o.before = plan.CollectStats(root)
	o.derived = 0
	o.pins = nil
	if o.caps != 0 {
		o.memo = make(map[plan.Node]*facts, o.before.Total)
		for i := 0; i < maxPasses; i++ {
			o.pass = i + 1
			o.passes = o.pass
			start := o.rewrites
			root = o.simplify(root)
			if o.caps.Has(CapFilterPushdown) {
				root = o.pushFilters(root)
			}
			root = o.rewriteASJ(root)
			if o.caps.Has(CapLimitPushdown) {
				root = o.pushLimits(root)
			}
			root = o.rewriteAggregates(root)
			if o.caps.Has(CapColumnPrune) {
				root = o.prune(root, o.cols(root))
			}
			root = o.cleanup(root)
			if o.rewrites == start {
				break
			}
		}
		o.memo = nil
	}
	if o.costing {
		root = o.costPass(root)
	}
	o.after = plan.CollectStats(root)
	return root
}

// --- constant folding and filter simplification ------------------------

// fold folds constant subexpressions and applies boolean identities.
func (o *Optimizer) fold(e plan.Expr) plan.Expr {
	return plan.RewriteExpr(e, func(x plan.Expr) plan.Expr {
		switch x := x.(type) {
		case *plan.Bin:
			switch x.Op {
			case "AND":
				if plan.IsConstBool(x.L, true) {
					return x.R
				}
				if plan.IsConstBool(x.R, true) {
					return x.L
				}
				if plan.IsConstBool(x.L, false) || plan.IsConstBool(x.R, false) {
					return plan.FalseExpr()
				}
				return x
			case "OR":
				if plan.IsConstBool(x.L, false) {
					return x.R
				}
				if plan.IsConstBool(x.R, false) {
					return x.L
				}
				if plan.IsConstBool(x.L, true) || plan.IsConstBool(x.R, true) {
					return plan.TrueExpr()
				}
				return x
			}
		}
		return o.evalIfConst(x)
	})
}

// evalIfConst evaluates an expression with no column references. The
// result is a fact about the lifted literals in x, which it pins — except
// for a strict operator over a NULL operand, which is NULL whatever the
// other operand holds.
func (o *Optimizer) evalIfConst(x plan.Expr) plan.Expr {
	switch x.(type) {
	case *plan.Const, *plan.ColRef:
		return x
	}
	if !plan.ColsUsed(x).Empty() {
		return x
	}
	if hasSlot(x) {
		if strictOverNull(x) {
			return &plan.Const{Val: types.NewNull(x.Type())}
		}
		o.pinExpr(x)
	}
	fn, err := exec.Compile(x, map[types.ColumnID]int{})
	if err != nil {
		return x
	}
	v, err := fn(nil)
	if err != nil {
		return x
	}
	if v.IsNull() {
		v = types.NewNull(x.Type())
	}
	return &plan.Const{Val: v}
}

// strictOverNull reports whether x is a comparison or arithmetic with a
// NULL constant operand, or a negation of one.
func strictOverNull(x plan.Expr) bool {
	switch x := x.(type) {
	case *plan.Bin:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/":
			return isNullConst(x.L) || isNullConst(x.R)
		}
	case *plan.Un:
		return x.Op == "-" && isNullConst(x.E)
	}
	return false
}

// simplify folds filter conditions, drops TRUE filters, converts FALSE
// filters into empty Values, and converts left outer joins under
// null-rejecting filters into inner joins. fold copies on write, so
// comparing pointers tells whether folding changed an expression.
func (o *Optimizer) simplify(n plan.Node) plan.Node {
	defer o.settle(n, o.rewrites)
	for i, c := range n.Inputs() {
		n.SetInput(i, o.simplify(c))
	}
	switch n := n.(type) {
	case *plan.Filter:
		if folded := o.fold(n.Cond); folded != n.Cond {
			n.Cond = folded
			o.rewrote(n)
		}
		if plan.IsConstBool(n.Cond, true) {
			o.rewrote()
			o.log("filter-true-elim")
			return n.Input
		}
		if isFalseOrNullConst(n.Cond) {
			o.rewrote()
			o.log("filter-false-to-empty")
			return &plan.Values{Cols: n.Input.Columns()}
		}
		if o.caps.Has(CapOuterToInner) {
			if out := o.outerToInner(n); out != nil {
				return out
			}
		}
	case *plan.Project:
		for i := range n.Cols {
			if folded := o.fold(n.Cols[i].Expr); folded != n.Cols[i].Expr {
				n.Cols[i].Expr = folded
				o.rewrote(n)
			}
		}
	}
	return n
}

func isFalseOrNullConst(e plan.Expr) bool {
	c, ok := e.(*plan.Const)
	if !ok {
		return false
	}
	return c.Val.IsNull() || (c.Val.Typ == types.TBool && !c.Val.Bool())
}

// outerToInner converts LeftOuterJoin to InnerJoin when a filter conjunct
// above it rejects NULL-extended right sides.
func (o *Optimizer) outerToInner(f *plan.Filter) plan.Node {
	j, ok := f.Input.(*plan.Join)
	if !ok || j.Kind != plan.LeftOuterJoin {
		return nil
	}
	rightCols := o.cols(j.Right)
	for _, conj := range plan.Conjuncts(f.Cond) {
		if o.nullRejecting(conj, rightCols) {
			j.Kind = plan.InnerJoin
			o.rewrote(j)
			o.logEvent("outer-to-inner", j, 0, "null-rejecting filter above left outer join")
			return f
		}
	}
	return nil
}

// nullRejecting reports whether the predicate is provably FALSE or NULL
// whenever all columns in the given set are NULL.
func (o *Optimizer) nullRejecting(e plan.Expr, cols types.ColSet) bool {
	used := plan.ColsUsed(e)
	if !used.Intersects(cols) {
		return false
	}
	// Substitute NULL for the columns and fold; if the remaining
	// expression still references other columns we only accept a small
	// set of surely-strict shapes.
	nulls := map[types.ColumnID]plan.Expr{}
	used.Intersect(cols).ForEach(func(id types.ColumnID) {
		nulls[id] = &plan.Const{Val: types.NewNull(types.TNull)}
	})
	sub := o.fold(plan.SubstituteColumns(e, nulls))
	if isFalseOrNullConst(sub) {
		return true
	}
	switch s := sub.(type) {
	case *plan.Bin:
		// A comparison with a NULL operand is NULL regardless of the
		// other operand.
		switch s.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			if isNullConst(s.L) || isNullConst(s.R) {
				return true
			}
		}
	case *plan.InListExpr:
		if !s.Not && isNullConst(s.E) {
			return true
		}
	}
	return false
}

func isNullConst(e plan.Expr) bool {
	c, ok := e.(*plan.Const)
	return ok && c.Val.IsNull()
}
