package experiments

import (
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/plan"
	"vdm/internal/s4"
)

func TestPrecisionLossReport(t *testing.T) {
	e := testEngine(t)
	rep, err := PrecisionLossReport(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "exact=") {
		t.Fatalf("unexpected report:\n%s", rep)
	}
}

func TestPrecisionLossRewriteFires(t *testing.T) {
	e := testEngine(t)
	q := `select allow_precision_loss(sum(round(l_extendedprice * 1.11, 2))) from lineitem`
	p, err := e.PlanQuery("", q, true)
	if err != nil {
		t.Fatal(err)
	}
	// After the rewrite the plan's aggregate argument is the raw column;
	// the single ROUND sits above the aggregation.
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].IsNull() {
		t.Fatal("aggregate is NULL")
	}
	// The values agree up to the final rounding digit with the exact
	// query.
	exact, err := e.Query(`select sum(round(l_extendedprice * 1.11, 2)) from lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Rows[0][0].Decimal()
	b := exact.Rows[0][0].Decimal()
	diff := a.Sub(b)
	if diff.Coef < 0 {
		diff = diff.Neg()
	}
	// Tolerance: one cent per thousand line items of drift.
	if diff.Float64() > 100.0 {
		t.Fatalf("apl drifted too far: %s vs %s", a, b)
	}
}

func TestMacroReport(t *testing.T) {
	e := testEngine(t)
	rep, err := MacroReport(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "margin") {
		t.Fatalf("unexpected report:\n%s", rep)
	}
}

func TestCardSpecReport(t *testing.T) {
	e := testEngine(t)
	rep, err := CardSpecReport(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "joins in plan = 1") || !strings.Contains(rep, "joins in plan = 0") {
		t.Fatalf("cardinality spec did not change plans:\n%s", rep)
	}
	if !strings.Contains(rep, "1 violation(s) flagged") {
		t.Fatalf("verifier did not flag the wrong declaration:\n%s", rep)
	}
}

func TestS4Reports(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, err := NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Figure3Report(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3, "47 table instances, 49 joins") {
		t.Fatalf("figure 3 report:\n%s", f3)
	}
	f4, err := Figure4Report(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f4, "2 joins") {
		t.Fatalf("figure 4 report:\n%s", f4)
	}
	f14, err := Figure14Report(e, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f14, "14b-case-join") {
		t.Fatalf("figure 14 report:\n%s", f14)
	}
	csv, err := Figure14CSV(e, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv, "mode,view,orig_ns,ext_ns,recognized") ||
		len(strings.Split(strings.TrimSpace(csv), "\n")) != 1+2*4 {
		t.Fatalf("csv:\n%s", csv)
	}
	abl, err := AblationReport(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(abl, "full profile") || !strings.Contains(abl, "column pruning") {
		t.Fatalf("ablation report:\n%s", abl)
	}
}

// TestAblationSamePlan pins the ablation report's ratio column on the
// tiny S/4 fixture: a row whose plan (plan.Format) is the full
// profile's prints "same plan", and every other row prints a ratio.
func TestAblationSamePlan(t *testing.T) {
	e, err := NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AblationReport(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(rep), "\n")[1:]
	if len(lines) != len(ablations) {
		t.Fatalf("%d rows for %d ablations:\n%s", len(lines), len(ablations), rep)
	}
	var base string
	same := 0
	for i, a := range ablations {
		e.SetProfile(core.Profile{Name: a.name, Caps: core.ProfileHANA.Caps &^ a.drop})
		p, err := e.PlanQuery("user", ablationQuery, true)
		if err != nil {
			t.Fatal(err)
		}
		text := plan.Format(p.Ctx, p.Root)
		if i == 0 {
			base = text
		}
		want := i > 0 && text == base
		if got := strings.Contains(lines[i], "same plan"); got != want {
			t.Errorf("row %q: same plan=%v, want %v", lines[i], got, want)
		}
		if want {
			same++
		} else if !strings.Contains(lines[i], "x)") {
			t.Errorf("row %q prints no ratio", lines[i])
		}
	}
	if same == 0 || same == len(ablations)-1 {
		t.Errorf("%d rows share the full profile's plan; the fixture should give some of each:\n%s", same, rep)
	}
	t.Logf("\n%s", rep)
}
