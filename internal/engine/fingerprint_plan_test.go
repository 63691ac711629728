package engine_test

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/plan"
	"vdm/internal/types"
)

// slotRef matches a lifted literal as plans and traces show it.
var slotRef = regexp.MustCompile(`\$(\d+)`)

// TestFingerprintedPlansMatchFresh plans every statement of the optimizer
// corpus under every profile twice: as written, and the way the plan
// cache plans a miss, with its literals lifted into slots. With each slot
// shown as its value, the two plans (with row estimates) and optimizer
// traces must be identical: lifting a literal may narrow which statements
// reuse a plan, never change the plan. The corpus is the TPC-H battery,
// the UAJ, ASJ and Union UAJ suites, Figure 6, the vdm_read round with
// Figures 3 and 4, and the template oracle's shapes.
func TestFingerprintedPlansMatchFresh(t *testing.T) {
	type stmt struct {
		e    *engine.Engine
		user string
		q    experiments.NamedQuery
	}
	var stmts []stmt
	tp := equivEngine(t)
	tpch := append(equivQueries(), vecBattery()...)
	tpch = append(tpch, experiments.UAJQueries()...)
	tpch = append(tpch, experiments.ASJQueries()...)
	tpch = append(tpch, experiments.UnionUAJQueries()...)
	tpch = append(tpch, experiments.ASJNegativeQuery(), experiments.ASJUnionAnchorQuery(),
		experiments.CaseJoinQuery(false), experiments.CaseJoinQuery(true), experiments.LimitAJQuery())
	for _, q := range tpch {
		stmts = append(stmts, stmt{tp, "", q})
	}
	s4e := templateEngine(t)
	s4q := append(vdmRoundStatements(),
		experiments.NamedQuery{Name: "fig3", SQL: "select * from " + browser},
		experiments.NamedQuery{Name: "fig4", SQL: "select count(*) from " + browser})
	for _, q := range append(s4q, templateShapes()...) {
		stmts = append(stmts, stmt{s4e, "user", q})
	}

	profiles := append(core.Profiles(), core.ProfileNone, core.ProfileHANANoCaseJoin)
	lifted := 0
	for _, p := range profiles {
		tp.SetProfile(p)
		s4e.SetProfile(p)
		for _, s := range stmts {
			fresh, err := s.e.PlanQuery(s.user, s.q.SQL, true)
			if err != nil {
				t.Fatalf("%s: %v", s.q.Name, err)
			}
			freshTrace, err := s.e.TraceQuery(s.user, s.q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", s.q.Name, err)
			}
			fp, fpTrace, vals, err := s.e.PlanFingerprinted(s.user, s.q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", s.q.Name, err)
			}
			lifted += len(vals) - 1
			want := planText(fresh) + freshTrace.String()
			got := showSlots(planText(fp)+fpTrace.String(), vals)
			if got != want {
				t.Errorf("%s under %s: planned with lifted literals:\n%s\nas written:\n%s", s.q.Name, p.Name, got, want)
			}
		}
	}
	t.Logf("%d statements x %d profiles, %d literals lifted", len(stmts), len(profiles), lifted)
	if len(stmts) < 131 {
		t.Errorf("corpus has %d statements, want at least 131", len(stmts))
	}
}

// planText renders a plan with its row estimates.
func planText(p *plan.Plan) string {
	return plan.FormatAnnotated(p.Ctx, p.Root, func(n plan.Node) string {
		if v, ok := p.Est[n]; ok {
			return fmt.Sprintf("est_rows=%.0f", v)
		}
		return ""
	})
}

// showSlots replaces every $n in text by slot n's value, shown as a
// plan shows a constant.
func showSlots(text string, vals []types.Value) string {
	return slotRef.ReplaceAllStringFunc(text, func(m string) string {
		s, _ := strconv.Atoi(m[1:])
		if s <= 0 || s >= len(vals) {
			return m
		}
		return plan.ExprString(nil, &plan.Const{Val: vals[s]})
	})
}
