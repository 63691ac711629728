package engine_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vdm/internal/core"
	"vdm/internal/decimal"
	"vdm/internal/engine"
	"vdm/internal/exec"
	"vdm/internal/experiments"
	"vdm/internal/htapbench"
	"vdm/internal/plan"
	"vdm/internal/s4"
	"vdm/internal/tpch"
	"vdm/internal/types"
)

// TestVectorTopKBoundarySweep sweeps LIMIT/OFFSET across the boundary
// cases the bounded top-k heap must get right: empty page (limit 0),
// single row, one either side of the page size, exactly the input
// cardinality, and past the end of the input. Every leg must match the
// row-serial reference exactly — same rows, same order.
func TestVectorTopKBoundarySweep(t *testing.T) {
	e := equivEngine(t)
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}

	rows := runRef(t, e, `select count(*) from orders`, core.ProfileHANA)
	n := int(rows.Rows[0][0].Int())
	if n < 12 {
		t.Fatalf("orders too small for the sweep: %d rows", n)
	}

	const page = 10
	limits := []int{0, 1, page - 1, page, page + 1, n - 1, n, n + 1}
	offsets := []int{0, 1, page, n}

	// o_totalprice has ties at TPCH tiny scale and o_orderdate is
	// nullable, so the sweep also exercises tie-breaking and NULL sort
	// keys at every page edge.
	shapes := []experiments.NamedQuery{
		{Name: "price-desc", SQL: `select o_orderkey, o_totalprice from orders order by o_totalprice desc, o_orderkey`},
		{Name: "date-nulls", SQL: `select o_orderkey, o_orderdate from orders order by o_orderdate, o_orderkey`},
		{Name: "status-ties", SQL: `select o_orderkey, o_orderstatus from orders order by o_orderstatus, o_orderkey desc`},
	}

	for _, shape := range shapes {
		for _, limit := range limits {
			for _, offset := range offsets {
				q := fmt.Sprintf("%s limit %d offset %d", shape.SQL, limit, offset)
				label := fmt.Sprintf("%s/limit=%d/offset=%d", shape.Name, limit, offset)
				ref := runRef(t, e, q, core.ProfileHANA)
				if want := max(0, min(limit, n-offset)); len(ref.Rows) != want {
					t.Fatalf("%s: reference returned %d rows, want %d", label, len(ref.Rows), want)
				}
				for _, leg := range vecLegs() {
					got := runMeta(t, e, q, leg.opts, core.ProfileHANA)
					requireSameRows(t, label+"/"+leg.name, q, ref, got)
				}
			}
		}
	}
}

// TestVecFallbackZeroOnFigureQueries is the CI guard for the paper's
// two benchmark anchors: the Figure 6 LimitAJ paging query and the
// Figure 4 count(*) over JournalEntryItemBrowser. Each must start a
// batch pipeline, report every operator's counters under EXPLAIN
// ANALYZE, and return the row reference's rows. (The name recalls the
// exec.vec_fallbacks counters it once pinned at zero: nothing falls
// back since every plan compiles to batch operators.)
func TestVecFallbackZeroOnFigureQueries(t *testing.T) {
	check := func(t *testing.T, name string, e *engine.Engine, sql string) {
		t.Helper()
		pipesBefore := metricValue(t, e, "exec.vec_pipelines")
		got, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pipesAfter := metricValue(t, e, "exec.vec_pipelines"); pipesAfter <= pipesBefore {
			t.Errorf("%s: exec.vec_pipelines did not advance (%d -> %d)", name, pipesBefore, pipesAfter)
		}
		requireSameRows(t, name, sql, runRef(t, e, sql, core.ProfileHANA), got)
		requireAllBatch(t, e, "", sql)
	}

	t.Run("fig6-limit-aj", func(t *testing.T) {
		e, err := experiments.NewTPCHEngine(tpch.TinyScale())
		if err != nil {
			t.Fatal(err)
		}
		check(t, "Fig. 6", e, experiments.LimitAJQuery().SQL)
	})

	t.Run("fig4-count-star", func(t *testing.T) {
		e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
		if err != nil {
			t.Fatal(err)
		}
		check(t, "Fig. 4", e, `select count(*) from JournalEntryItemBrowser`)
	})
}

// planLine returns the line of an EXPLAIN rendering that shows the
// named operator.
func planLine(t *testing.T, text, op string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), op) {
			return line
		}
	}
	t.Fatalf("no %s operator in:\n%s", op, text)
	return ""
}

// TestVecFallbackExplainReasons covers the shapes that carried each of
// the batch compiler's former decline labels (expression, or, union,
// distinct) and two that once ran in part on the row iterators. Plain
// EXPLAIN renders each without running it (no executor counter moves);
// EXPLAIN ANALYZE runs it as one batch pipeline with every operator's
// counters; and its rows, order and value types are the row
// reference's.
func TestVecFallbackExplainReasons(t *testing.T) {
	e := equivEngine(t)

	for _, tc := range []struct{ name, sql string }{
		{"division", `select l_orderkey, l_extendedprice / l_quantity from lineitem`},
		{"mod", `select o_orderkey, mod(o_orderkey, 7) from orders`},
		{"to-decimal", `select o_orderkey, to_decimal(o_totalprice, 1) from orders`},
		{"or-branch", `select o_orderkey from orders where o_orderkey < 10 or o_totalprice / 2 > 1000.00`},
		{"union-types-disagree", `select o_orderkey k from orders
			union all select o_totalprice from orders`},
		{"count-distinct", `select count(distinct o_custkey) from orders`},
		{"union-of-aggregates", `select o_orderstatus s, count(*) c from orders group by o_orderstatus
			union all select c_mktsegment, count(*) from customer group by c_mktsegment`},
		{"distinct-over-join", `select distinct c_mktsegment from
			(select o_custkey k, count(*) n from orders group by o_custkey) t inner join customer on k = c_custkey`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pipes := metricValue(t, e, "exec.vec_pipelines")
			if _, err := e.Explain("", tc.sql); err != nil {
				t.Fatal(err)
			}
			if metricValue(t, e, "exec.vec_pipelines") != pipes {
				t.Errorf("plain EXPLAIN moved executor counters")
			}
			requireAllBatch(t, e, "", tc.sql)
			want := typedRows(runRef(t, e, tc.sql, core.ProfileHANA))
			if got := typedRows(runMeta(t, e, tc.sql, engine.Options{}, core.ProfileHANA)); got != want {
				t.Errorf("%q:\n got:\n%s\nwant:\n%s", tc.sql, got, want)
			}
		})
	}
}

// requireAllBatch runs EXPLAIN ANALYZE of a statement and requires that
// it started a batch pipeline and that every operator line carries the
// counters its batch source or stage recorded.
func requireAllBatch(t *testing.T, e *engine.Engine, user, sqlText string) {
	t.Helper()
	pipes := metricValue(t, e, "exec.vec_pipelines")
	text, err := e.ExplainAnalyze(user, sqlText)
	if err != nil {
		t.Fatal(err)
	}
	if metricValue(t, e, "exec.vec_pipelines") <= pipes {
		t.Errorf("%q: EXPLAIN ANALYZE started no batch pipeline", sqlText)
	}
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.Contains(line, "[rows=") {
			t.Errorf("%q: operator without counters: %s", sqlText, line)
		}
	}
}

// TestVecDistinctOverRowOperatorLabelsOnce is the regression test for a
// coverage gap once reported twice: a DISTINCT over a Project whose
// division had no kernel. The Project's division is a row kernel now,
// so the whole statement runs as one batch pipeline, with the row
// reference's rows.
func TestVecDistinctOverRowOperatorLabelsOnce(t *testing.T) {
	e := equivEngine(t)
	q := `select distinct o_orderkey / 2 from orders`
	requireAllBatch(t, e, "", q)
	requireSameRows(t, "distinct-division", q, runRef(t, e, q, core.ProfileHANA), runMeta(t, e, q, engine.Options{}, core.ProfileHANA))
}

// TestVecBenchmarkStatementsBuildNoRowOps pins the benchmark's read
// statements in batch mode: the seven of a vdm_read round, in plain and
// in vdm_plan's spliced form, and Figure 3's select * on the tiny S/4
// fixture as the DAC user; and the four of an htap_mix reader round on
// the htapbench fixture. Each runs as one batch pipeline under EXPLAIN
// ANALYZE, every operator with its counters, and through the plan cache
// (a miss and a hit) returns the row reference's rows.
func TestVecBenchmarkStatementsBuildNoRowOps(t *testing.T) {
	check := func(t *testing.T, e *engine.Engine, user string, stmts []string) {
		t.Helper()
		e.EnablePlanCache(true)
		for _, q := range stmts {
			requireAllBatch(t, e, user, q)
			engine.SetRowReference(e, true)
			ref, err := e.QueryAs(user, q)
			engine.SetRowReference(e, false)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			for i := 0; i < 2; i++ {
				got, err := e.QueryAs(user, q)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				requireSameRows(t, "plan cache", q, ref, got)
			}
		}
	}

	t.Run("vdm_read", func(t *testing.T) {
		e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.MergeAllDeltas(); err != nil {
			t.Fatal(err)
		}
		const b = "JournalEntryItemBrowser"
		stmts := []struct{ head, where, tail, taut string }{
			{"select count(*) from " + b, "", "", "gjahr"},
			{"select rbukrs, gjahr, belnr, docln, hsl, sup_name1, cus_name1 from " + b, "", " limit 100 offset 200", "gjahr"},
			{"select rbukrs, company_name, sum(hsl) total, count(*) n from " + b, "",
				" group by rbukrs, company_name order by rbukrs, company_name", "gjahr"},
			{"select cty_landx, sum(hsl) total, count(*) n from " + b, "gjahr = 2023", " group by cty_landx order by cty_landx", "gjahr"},
			{"select belnr, docln, hsl, cus_name1 from " + b, "", " order by hsl desc, belnr, docln limit 50", "gjahr"},
			{"select * from C_Document001XC", "", " limit 10", "id"},
			{"select * from C_Document003", "", " limit 10", "id"},
			{"select * from " + b, "", " limit 100", "gjahr"}, // Figure 3
		}
		var texts []string
		for _, s := range stmts {
			// Plain, and with vdm_plan's always-true predicate spliced in.
			for _, w := range []string{s.where, strings.TrimPrefix(s.where+" and "+s.taut+" > -9", " and ")} {
				q := s.head
				if w != "" {
					q += " where " + w
				}
				texts = append(texts, q+s.tail)
			}
		}
		check(t, e, "user", texts)
	})

	t.Run("htap_mix", func(t *testing.T) {
		e := engine.New()
		if _, err := htapbench.SetupFixture(e, htapbench.Config{Writers: 1, Scale: 2000, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		check(t, e, "", []string{
			`select doc_type, count(*) n, sum(amount) total from ` + htapbench.ConsumptionView +
				` group by doc_type order by doc_type`,
			`select count(*), sum(amount) from hb_active where amount >= 2500.00 and currency = 'EUR'`,
			`select bid, id, doc_type, amount, currency_name from ` + htapbench.ConsumptionView +
				` order by amount desc, bid, id limit 50 offset 100`,
			`select sum(v) from (select amount v from hb_active union all select 0.00 - balance from hb_ledger) t`,
		})
	})
}

// TestVecSelectStarTemplateMatchesRowPath runs Figure 3's select * on
// the tiny S/4 fixture through the plan cache's template path — a text
// that plans the template, then one that instantiates it — at batch
// sizes 1, 7 and 1024, and diffs each against the row executor: rows,
// order, and each value's type. Its joins sit above the two aggregate views of the browser, so
// they run over group sources.
func TestVecSelectStarTemplateMatchesRowPath(t *testing.T) {
	e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePlanCache(true)
	text := func(k int) string {
		return fmt.Sprintf("select * from JournalEntryItemBrowser where gjahr > -%d limit 100", k)
	}
	engine.SetRowReference(e, true)
	ref, err := e.QueryAs("user", text(1))
	engine.SetRowReference(e, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) != 100 {
		t.Fatalf("the reference returned %d rows, want 100", len(ref.Rows))
	}
	want := typedRows(ref)
	k := 1
	for _, size := range []int{1, 7, 1024} {
		e.SetOptions(engine.Options{BatchSize: size})
		for i := 0; i < 2; i++ {
			k++
			hits := metricValue(t, e, "plancache.template_hits")
			res, err := e.QueryAs("user", text(k))
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && metricValue(t, e, "plancache.template_hits") != hits+1 {
				t.Errorf("batch=%d: %q did not instantiate the template", size, text(k))
			}
			if got := typedRows(res); got != want {
				t.Errorf("batch=%d: %q differs from the row executor:\n got:\n%s\nwant:\n%s", size, text(k), got, want)
			}
		}
	}
	requireAllBatch(t, e, "user", text(k))
}

// TestVecCompilerDeclinesJoinShapes covers the join shapes the batch
// compiler once declined to the row join: semi, anti, non-equi and
// equi-with-residual joins run as row join sources, and a
// Filter with no typed kernel above a batch join is a row kernel stage
// over it. Each runs as one batch pipeline with the row reference's
// rows at batch sizes 1, 7 and 1024.
func TestVecCompilerDeclinesJoinShapes(t *testing.T) {
	e := equivEngine(t)
	for _, tc := range []struct{ name, sql string }{
		{"semi", `select c_custkey from customer where c_custkey in
			(select o_custkey from orders where o_totalprice > 500.00) order by c_custkey`},
		{"anti", `select c_custkey from customer where c_custkey not in
			(select o_custkey from orders) order by c_custkey`},
		{"non-equi", `select c_custkey, o_orderkey from customer inner join orders
			on c_custkey < o_custkey where o_orderkey < 5 order by c_custkey, o_orderkey`},
		{"residual", `select c_custkey, o_orderkey from customer inner join orders
			on c_custkey = o_custkey and o_totalprice > c_acctbal order by c_custkey, o_orderkey`},
		{"filter-above-join", `select o_orderkey from orders inner join customer on o_custkey = c_custkey
			where o_totalprice / 2 > c_acctbal`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runRef(t, e, tc.sql, core.ProfileHANA)
			for _, size := range []int{1, 7, 1024} {
				got := runMeta(t, e, tc.sql, engine.Options{BatchSize: size}, core.ProfileHANA)
				requireSameRows(t, fmt.Sprintf("%s/batch=%d", tc.name, size), tc.sql, want, got)
			}
			requireAllBatch(t, e, "", tc.sql)
		})
	}
}

// TestUnoptimizedPlanVectorizes pins that vectorization is the
// executor's decision, not a stamp the optimizer leaves on the plan: a
// bound-only plan from PlanQuery(optimize=false) executed with Run goes
// through the batch pipelines like any other.
func TestUnoptimizedPlanVectorizes(t *testing.T) {
	e := equivEngine(t)
	queries := []string{
		`select o_orderkey, o_totalprice from orders`,
		`select o_orderkey from orders where o_totalprice > 1000.00`,
		`select o_orderstatus, count(*), sum(o_totalprice) from orders group by o_orderstatus`,
	}
	for _, q := range queries {
		p, err := e.PlanQuery("", q, false)
		if err != nil {
			t.Fatal(err)
		}
		pipes := metricValue(t, e, "exec.vec_pipelines")
		got, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if metricValue(t, e, "exec.vec_pipelines") <= pipes {
			t.Errorf("%q: unoptimized plan did not advance exec.vec_pipelines", q)
		}
		requireSameRows(t, "unoptimized", q, runMeta(t, e, q, e.Options(), core.ProfileHANA), got)

		// EXPLAIN ANALYZE-style: build the same bound-only plan under
		// instrumentation, as the engine does: each operator is a batch
		// source or stage that recorded its counters.
		db := e.DB()
		builder := exec.NewBuilder(p.Ctx, db, db.CurrentTS())
		builder.SetVectorize(0)
		builder.EnableAnalyze()
		if _, err := builder.Run(p.Root); err != nil {
			t.Fatal(err)
		}
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			switch n.(type) {
			case *plan.Scan, *plan.Filter, *plan.GroupBy:
				if st := builder.NodeStats(n); st == nil {
					t.Errorf("%q: %T recorded no counters", q, n)
				}
			}
			for _, in := range n.Inputs() {
				walk(in)
			}
		}
		walk(p.Root)
	}
}

// TestVecFallbackZeroUnderChurn runs the Fig. 6 LimitAJ paging query
// repeatedly while a concurrent writer churns the orders table
// (inserts + deletes driving delta growth, auto-merges, and vacuums):
// the vectorized pipeline must keep running end to end — every query
// succeeds and exec.vec_pipelines advances with each — whatever
// fragment layout the maintenance loop leaves behind.
func TestVecFallbackZeroUnderChurn(t *testing.T) {
	e, err := experiments.NewTPCHEngine(tpch.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	e.SetOptions(engine.Options{
		AutoMerge:      true,
		MergeThreshold: 256,
		GCInterval:     5 * time.Millisecond,
	})
	defer e.Close()

	db := e.DB()
	orders, ok := db.Table("orders")
	if !ok {
		t.Fatal("orders table missing")
	}
	pk := orders.PrimaryKeyIndex()
	if pk < 0 {
		t.Fatal("orders has no primary key")
	}

	done := make(chan struct{})
	churned := make(chan error, 1)
	go func() {
		defer close(churned)
		const base = int64(10_000_000)
		next := base
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Insert a small batch, then delete it again: the delta keeps
			// filling, auto-merge keeps folding it, vacuum keeps reaping
			// the dead versions.
			tx := db.Begin()
			for j := 0; j < 64; j++ {
				next++
				row := types.Row{
					types.NewInt(next),
					types.NewInt(1),
					types.NewString("O"),
					types.NewDecimal(decimal.New(int64(1000+j), 2)),
					types.NewDate(9000),
					types.NewString("1-URGENT"),
				}
				if err := tx.Insert(orders, row); err != nil {
					tx.Rollback()
					churned <- err
					return
				}
			}
			if err := tx.Commit(); err != nil {
				churned <- err
				return
			}
			tx = db.Begin()
			for id := next - 63; id <= next; id++ {
				snap := tx.Snapshot(orders)
				pos, ok := snap.LookupUnique(pk, types.Row{types.NewInt(id)})
				if !ok {
					tx.Rollback()
					churned <- fmt.Errorf("churn row %d vanished", id)
					return
				}
				if err := tx.DeleteAt(snap, pos); err != nil {
					tx.Rollback()
					churned <- err
					return
				}
			}
			if err := tx.Commit(); err != nil {
				churned <- err
				return
			}
			if i%4 == 3 {
				_ = orders.MergeDelta()
				_, _ = db.Vacuum()
			}
		}
	}()

	pipesBefore := metricValue(t, e, "exec.vec_pipelines")

	sql := experiments.LimitAJQuery().SQL
	for i := 0; i < 25; i++ {
		if _, err := e.Query(sql); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}

	close(done)
	if err := <-churned; err != nil {
		t.Fatalf("churn writer: %v", err)
	}

	if pipesAfter := metricValue(t, e, "exec.vec_pipelines"); pipesAfter < pipesBefore+25 {
		t.Errorf("exec.vec_pipelines advanced only %d in 25 queries", pipesAfter-pipesBefore)
	}
}
