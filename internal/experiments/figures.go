package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/plan"
	"vdm/internal/s4"
)

// NewS4Engine builds an engine with the synthetic S/4HANA schema, VDM
// stack, and the Figure 14 view population.
func NewS4Engine(sz s4.Size, f14 s4.Fig14Size) (*engine.Engine, error) {
	e := engine.New()
	if err := s4.Setup(e, sz); err != nil {
		return nil, err
	}
	if err := s4.SetupFig14(e, f14); err != nil {
		return nil, err
	}
	return e, nil
}

// Figure3Report renders the Figure 3 census against the paper's
// numbers.
func Figure3Report(e *engine.Engine) (string, error) {
	c, err := s4.Figure3(e)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3: select * from JournalEntryItemBrowser (unoptimized)\n")
	fmt.Fprintf(&b, "  shared (DAG) census:   %d table instances, %d joins, %d-way union all x%d, %d group by, %d distinct\n",
		c.Shared.TableInstances, c.Shared.Joins, c.Shared.UnionAllChildren, c.Shared.UnionAlls, c.Shared.GroupBys, c.Shared.Distincts)
	fmt.Fprintf(&b, "  unshared (tree):       %d table instances\n", c.Tree.TableInstances)
	b.WriteString("  paper:                 47 table instances, 49 joins, one 5-way union all, one group by, one distinct; 62 unshared\n")
	return b.String(), nil
}

// Figure4Report renders the optimized count(*) census.
func Figure4Report(e *engine.Engine) (string, error) {
	st, err := s4.Figure4(e)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4: select count(*) from JournalEntryItemBrowser (optimized)\n")
	fmt.Fprintf(&b, "  measured: %d table instances, %d joins, %d unions, %d distincts\n",
		st.TableInstances, st.Joins, st.UnionAlls, st.Distincts)
	b.WriteString("  paper:    only the two DAC-protected joins (LFA1, KNA1) remain\n")
	return b.String(), nil
}

// Figure14Report runs the paging-query population and summarizes both
// series the way the paper reads its scatter plot: points on the
// diagonal (extension ≈ original) versus points orders of magnitude
// above it.
func Figure14Report(e *engine.Engine, nViews, reps int) (string, error) {
	a, b, err := s4.RunFigure14(e, nViews, reps)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString("Figure 14: paging query time, original vs extension view\n")
	for _, series := range []s4.Fig14Series{a, b} {
		recognized := 0
		var recRatios, missRatios []float64
		for _, p := range series.Points {
			ratio := float64(p.ExtNs) / float64(p.OrigNs)
			if p.Recognized {
				recognized++
				recRatios = append(recRatios, ratio)
			} else {
				missRatios = append(missRatios, ratio)
			}
		}
		median := func(xs []float64) float64 {
			if len(xs) == 0 {
				return 0
			}
			sort.Float64s(xs)
			return xs[len(xs)/2]
		}
		fmt.Fprintf(&out, "  (%s) ASJ recognized %d/%d views; ext/orig ratio: on-diagonal median %.1fx",
			series.Mode, recognized, len(series.Points), median(recRatios))
		if len(missRatios) > 0 {
			sort.Float64s(missRatios)
			fmt.Fprintf(&out, "; unrecognized median %.0fx, max %.0fx",
				median(missRatios), missRatios[len(missRatios)-1])
		}
		out.WriteByte('\n')
	}
	out.WriteString("  paper: (a) many points 2–3 orders of magnitude above the diagonal; (b) all points on the diagonal\n")
	return out.String(), nil
}

// Figure14CSV emits the raw scatter data (one row per view and mode).
func Figure14CSV(e *engine.Engine, nViews, reps int) (string, error) {
	a, b, err := s4.RunFigure14(e, nViews, reps)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString("mode,view,orig_ns,ext_ns,recognized\n")
	for _, series := range []s4.Fig14Series{a, b} {
		for _, p := range series.Points {
			fmt.Fprintf(&out, "%s,%s,%d,%d,%v\n", series.Mode, p.View, p.OrigNs, p.ExtNs, p.Recognized)
		}
	}
	return out.String(), nil
}

// ablationQuery is the statement every ablation row plans and times.
const ablationQuery = "select count(*) from JournalEntryItemBrowser"

// ablations are the report's rows: the full HANA profile, then one
// capability removed at a time.
var ablations = []struct {
	name string
	drop core.Capability
}{
	{"full profile", 0},
	{"- UAJ via unique keys", core.CapUAJUniqueKey},
	{"- UAJ via grouping keys", core.CapUAJGroupBy},
	{"- UAJ via const filters", core.CapUAJConstFilter},
	{"- key derivation through joins", core.CapUAJThroughJoin},
	{"- inner-join FK elimination", core.CapUAJInnerFK},
	{"- union branch-ID keys", core.CapUAJUnionBranch},
	{"- union disjoint keys", core.CapUAJUnionDisjoint},
	{"- filter pushdown", core.CapFilterPushdown},
	{"- column pruning (disables UAJ pass)", core.CapColumnPrune},
}

// AblationReport measures the Figure 4 count(*) workload with one
// optimizer capability removed at a time — the per-design-choice
// ablation DESIGN.md calls for.
// A row whose plan is the full profile's prints "same plan" instead of
// a ratio.
func AblationReport(e *engine.Engine, reps int) (string, error) {
	q := ablationQuery
	saved := e.Profile()
	defer e.SetProfile(saved)
	var b strings.Builder
	b.WriteString("Ablations: count(*) over JournalEntryItemBrowser, one capability removed at a time\n")
	// Warm the caches so the first row isn't penalized.
	if _, err := e.QueryAs("user", q); err != nil {
		return "", err
	}
	var baseline int64
	var basePlan string
	for _, a := range ablations {
		e.SetProfile(core.Profile{Name: a.name, Caps: core.ProfileHANA.Caps &^ a.drop})
		p, err := e.PlanQuery("user", q, true)
		if err != nil {
			return "", err
		}
		text := plan.Format(p.Ctx, p.Root)
		best := int64(1 << 62)
		for i := 0; i < reps; i++ {
			_, ns, err := timedPlan(e, p)
			if err != nil {
				return "", err
			}
			if ns < best {
				best = ns
			}
		}
		st := plan.CollectStats(p.Root)
		if a.drop == 0 {
			baseline, basePlan = best, text
		}
		// A row whose plan is the full profile's runs the same operators:
		// a ratio would only measure the box's noise.
		ratio := fmt.Sprintf("(%.1fx)", float64(best)/float64(baseline))
		if a.drop != 0 && text == basePlan {
			ratio = "same plan"
		}
		fmt.Fprintf(&b, "  %-40s %8.2fms  %-9s  joins=%d tables=%d\n",
			a.name, float64(best)/1e6, ratio, st.Joins, st.TableInstances)
	}
	return b.String(), nil
}

func timedPlan(e *engine.Engine, p *plan.Plan) (*engine.Result, int64, error) {
	start := time.Now()
	res, err := e.Run(p)
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start).Nanoseconds(), nil
}

// PrecisionLossReport demonstrates §7.1: the ALLOW_PRECISION_LOSS
// rewrite interchanges rounding and addition, changing the plan (and at
// most the insignificant trailing digits of the aggregate).
func PrecisionLossReport(e *engine.Engine) (string, error) {
	exact := `select l_returnflag, sum(round(l_extendedprice * 1.11, 2)) tax_total
	          from lineitem group by l_returnflag order by l_returnflag`
	apl := `select l_returnflag, allow_precision_loss(sum(round(l_extendedprice * 1.11, 2))) tax_total
	        from lineitem group by l_returnflag order by l_returnflag`
	exactRes, exactNs, err := timedQuery(e, exact)
	if err != nil {
		return "", err
	}
	aplRes, aplNs, err := timedQuery(e, apl)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("§7.1 allow_precision_loss: SUM(ROUND(price*1.11,2)) vs ROUND(SUM(price)*1.11,2)\n")
	for i := range exactRes.Rows {
		fmt.Fprintf(&b, "  %s: exact=%s apl=%s\n",
			exactRes.Rows[i][0].String(), exactRes.Rows[i][1].String(), aplRes.Rows[i][1].String())
	}
	fmt.Fprintf(&b, "  exec time: exact %v, apl %v (one rounding per group instead of per row)\n",
		time.Duration(exactNs), time.Duration(aplNs))
	return b.String(), nil
}

// timedQuery plans once and times execution.
func timedQuery(e *engine.Engine, q string) (*engine.Result, int64, error) {
	p, err := e.PlanQuery("", q, true)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := e.Run(p)
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start).Nanoseconds(), nil
}

// MacroReport demonstrates §7.2: the margin expression macro defined on
// a view over lineitem×partsupp and reused across aggregation levels.
func MacroReport(e *engine.Engine) (string, error) {
	setup := `create view vLineitemMargin as
		select l_orderkey, l_partkey, l_suppkey, l_extendedprice, l_discount, ps_supplycost, ps_availqty
		from lineitem inner join partsupp on l_partkey = ps_partkey and l_suppkey = ps_suppkey
		with expression macros (
			1 - sum(ps_supplycost) / sum(l_extendedprice * (1 - l_discount)) as margin
		)`
	if _, ok := e.Catalog().View("vLineitemMargin"); !ok {
		if err := e.Exec(setup); err != nil {
			return "", err
		}
	}
	res, err := e.Query(`select l_suppkey, expression_macro(margin) margin
		from vLineitemMargin group by l_suppkey order by margin desc limit 5`)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("§7.2 expression macros: margin reused over aggregates (top suppliers)\n")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "  supplier %s margin %s\n", r[0].String(), r[1].String())
	}
	return b.String(), nil
}

// CardSpecReport demonstrates §7.3: the same UAJ elimination achieved
// with a cardinality specification instead of a constraint, plus the
// verification tool.
func CardSpecReport(e *engine.Engine) (string, error) {
	var b strings.Builder
	b.WriteString("§7.3 join cardinality specification\n")
	// lineitem (l_orderkey, l_suppkey) -> supplier has no constraint
	// usable for UAJ; with MANY TO ONE declared the join is removable.
	plain := `select l_orderkey from lineitem left outer join supplier on l_suppkey = s_suppkey`
	spec := `select l_orderkey from lineitem left outer many to one join supplier on l_suppkey = s_suppkey`
	// Disable constraint-based derivation to isolate the spec's effect.
	saved := e.Profile()
	defer e.SetProfile(saved)
	e.SetProfile(core.Profile{Name: "spec-only", Caps: core.ProfileHANA.Caps &^ core.CapUAJUniqueKey})
	stPlain, err := e.PlanStats("", plain, true)
	if err != nil {
		return "", err
	}
	stSpec, err := e.PlanStats("", spec, true)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  without spec (no usable constraint): joins in plan = %d\n", stPlain.Joins)
	fmt.Fprintf(&b, "  with LEFT OUTER MANY TO ONE JOIN:    joins in plan = %d\n", stSpec.Joins)
	e.SetProfile(saved)
	viol, err := e.VerifyCardinalities("", spec)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  verification tool: %d violations for the declared cardinality\n", len(viol))
	bad := `select o_orderkey from orders left outer many to one join lineitem on o_orderkey = l_orderkey`
	viol, err = e.VerifyCardinalities("", bad)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  deliberately wrong declaration (orders→lineitem MANY TO ONE): %d violation(s) flagged\n", len(viol))
	return b.String(), nil
}
