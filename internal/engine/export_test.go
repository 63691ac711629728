package engine

import (
	"vdm/internal/bind"
	"vdm/internal/core"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// PlanFingerprinted plans a statement the way the plan cache plans a
// miss — its literals lifted into slots by sql.Fingerprint first — and
// returns the plan, the optimizer's trace and the lifted values by slot.
func (e *Engine) PlanFingerprinted(user, sqlText string) (*plan.Plan, *core.Trace, []types.Value, error) {
	body, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, nil, nil, err
	}
	_, vals := sql.Fingerprint(body)
	p, err := bind.New(e.cat, user).BindQuery(body)
	if err != nil {
		return nil, nil, nil, err
	}
	opt := core.NewOptimizer(p.Ctx, e.profile)
	opt.SetCosting(e.costing)
	p.Root = opt.Optimize(p.Root)
	p.Est = opt.Estimates()
	return p, opt.Report(), vals, nil
}

// SetRowReference switches e between the batch executor and the row
// executor, the reference the equivalence tests compare it against.
func SetRowReference(e *Engine, on bool) { e.rowReference = on }

// SetBuildReuse switches the sharing of hash builds across a cached
// plan's executions on or off (on by default); off, every hash join
// builds its own table, the reference the build-reuse battery diffs
// against.
func SetBuildReuse(e *Engine, on bool) { e.noBuildReuse = !on }
