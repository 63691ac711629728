package core

import (
	"slices"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Pinning. A plan built from a fingerprinted statement is a template: its
// lifted literals (plan.Const with a Slot) may later be re-bound to
// another statement's values by plan.Instantiate. That is sound only for
// rewrites that did not look at those values. A rewrite that decides on
// a lifted literal's value — folds it, compares it with another
// constant, or proves two filters disjoint with it — pins the slot, and
// the plan cache reuses the template only for statements whose pinned
// literals are the ones it was planned with. Decisions on a literal's
// type (lifted literals are never NULL or boolean) and moving the Const
// node itself about the plan pin nothing; the cost pass reads values
// freely, because its choices are sniffed from the first literals.

// pin records that the plan depends on k's value.
func (o *Optimizer) pin(k *plan.Const) {
	if k.Slot == 0 {
		return
	}
	if o.pins == nil {
		o.pins = map[int]bool{}
	}
	o.pins[k.Slot] = true
}

// pinLits pins every literal of ks.
func (o *Optimizer) pinLits(ks []*plan.Const) {
	for _, k := range ks {
		o.pin(k)
	}
}

// pinExpr pins every lifted literal in e.
func (o *Optimizer) pinExpr(e plan.Expr) {
	plan.RewriteExpr(e, func(x plan.Expr) plan.Expr {
		if k, ok := x.(*plan.Const); ok {
			o.pin(k)
		}
		return x
	})
}

// sameConst reports whether two constants are SQL-equal. Two uses of one
// slot are equal in every instantiation, so that needs no pin; any other
// answer is a fact about the values and pins both.
func (o *Optimizer) sameConst(a, b *plan.Const) bool {
	if a.Slot > 0 && a.Slot == b.Slot {
		return true
	}
	o.pin(a)
	o.pin(b)
	return types.Equal(a.Val, b.Val)
}

// hasSlot reports whether e holds a lifted literal.
func hasSlot(e plan.Expr) bool {
	found := false
	plan.RewriteExpr(e, func(x plan.Expr) plan.Expr {
		if k, ok := x.(*plan.Const); ok && k.Slot > 0 {
			found = true
		}
		return x
	})
	return found
}

// Pinned returns the slots the last Optimize call pinned, ascending.
func (o *Optimizer) Pinned() []int {
	out := make([]int, 0, len(o.pins))
	for s := range o.pins {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}
