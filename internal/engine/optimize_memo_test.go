package engine_test

import (
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/s4"
	"vdm/internal/tpch"
)

// TestReoptimizeFiresNothing optimizes an optimized plan once more,
// under every profile, for Figures 3, 4 and 6 and the vdm_read round:
// no rule may fire and the fixpoint loop must stop after one pass. A
// rule that reports a rewrite where nothing changed — say, a fold that
// rebuilds an unchanged expression, which simplify's pointer comparison
// would count — shows up here as a second pass.
func TestReoptimizeFiresNothing(t *testing.T) {
	s4e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	tpche, err := experiments.NewTPCHEngine(tpch.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	type stmt struct {
		e    *engine.Engine
		user string
		q    experiments.NamedQuery
	}
	var stmts []stmt
	for _, q := range vdmRoundStatements() {
		stmts = append(stmts, stmt{s4e, "user", q})
	}
	stmts = append(stmts,
		stmt{s4e, "user", experiments.NamedQuery{Name: "fig3", SQL: "select * from " + browser}},
		stmt{s4e, "user", experiments.NamedQuery{Name: "fig4", SQL: "select count(*) from " + browser}},
		stmt{tpche, "", experiments.LimitAJQuery()})

	profiles := append(core.Profiles(), core.ProfileNone, core.ProfileHANANoCaseJoin)
	for _, s := range stmts {
		// The cost pass wraps reordered joins in a projection the rewrite
		// rules would merge away; the rewrite fixpoint alone is idempotent.
		s.e.EnableCosting(false)
		for _, p := range profiles {
			s.e.SetProfile(p)
			pl, err := s.e.PlanQuery(s.user, s.q.SQL, true)
			if err != nil {
				t.Fatalf("%s: %v", s.q.Name, err)
			}
			o := core.NewOptimizer(pl.Ctx, p)
			o.Optimize(pl.Root)
			tr := o.Report()
			want := 1
			if p.Caps == 0 {
				want = 0
			}
			if tr.Passes != want || len(tr.Events) != 0 {
				t.Errorf("%s under %s: re-optimizing ran %d passes (want %d), fired %d rules:\n%s",
					s.q.Name, p.Name, tr.Passes, want, len(tr.Events), tr)
			}
		}
		s.e.SetProfile(core.ProfileHANA)
		s.e.EnableCosting(true)
	}
}

// TestDerivedFactsLinearInPlan pins the optimizer's bill on Figure 3's
// select * browser (235 operators as bound, two passes): every node's
// column set and properties are derived once per pass, plus the changed
// paths, so the count of derived facts stays within c = 2 per node per
// pass. Re-deriving the subtree below every join at each rule costs some
// 12 800 node-level derivations on the same plan.
func TestDerivedFactsLinearInPlan(t *testing.T) {
	e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.TraceQuery("user", "select * from "+browser)
	if err != nil {
		t.Fatal(err)
	}
	const c = 2
	nodes := tr.Before.Total
	if tr.Derived == 0 || tr.Derived > c*nodes*tr.Passes {
		t.Fatalf("derived %d facts for %d operators over %d passes, want 1..%d",
			tr.Derived, nodes, tr.Passes, c*nodes*tr.Passes)
	}
}
