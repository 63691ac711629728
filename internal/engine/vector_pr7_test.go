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

	rowSerial := engine.Options{DisableVectorize: true}

	rows := runMeta(t, e, `select count(*) from orders`, rowSerial, core.ProfileHANA)
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
				ref := runMeta(t, e, q, rowSerial, core.ProfileHANA)
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
// Figure 4 count(*) over JournalEntryItemBrowser. No exec.vec_fallbacks.*
// counter may move and exec.vec_pipelines must advance; exec.row_ops —
// every row iterator built, labelled or not — is pinned per query, and
// EXPLAIN ANALYZE reports the same count on its root.
//
// Fig. 4's pin went from 6 to 1 when joins became batch sources: the
// DAC filters, both LEFT OUTER joins and the count(*) run on batches,
// and only the Project above the aggregate is a row operator. Fig. 6's
// went from 3 to 0 when LIMIT became a batch source: its join builds the
// LIMIT below it and the whole plan runs on batches.
func TestVecFallbackZeroOnFigureQueries(t *testing.T) {
	fallbackNames := []string{
		"exec.vec_fallbacks.expression",
		"exec.vec_fallbacks.or",
		"exec.vec_fallbacks.sort",
		"exec.vec_fallbacks.union",
		"exec.vec_fallbacks.distinct",
		"exec.vec_fallbacks.analyze_parallel",
	}

	snapshot := func(e *engine.Engine) map[string]int64 {
		out := make(map[string]int64, len(fallbackNames))
		for _, name := range fallbackNames {
			out[name] = metricValue(t, e, name)
		}
		return out
	}

	check := func(t *testing.T, name string, e *engine.Engine, sql string, rowOps int64) {
		t.Helper()
		before := snapshot(e)
		pipesBefore := metricValue(t, e, "exec.vec_pipelines")
		opsBefore := metricValue(t, e, "exec.row_ops")
		if _, err := e.Query(sql); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := snapshot(e)
		for _, metric := range fallbackNames {
			if d := after[metric] - before[metric]; d != 0 {
				t.Errorf("%s: %s moved by %d; query did not stay vectorized", name, metric, d)
			}
		}
		if pipesAfter := metricValue(t, e, "exec.vec_pipelines"); pipesAfter <= pipesBefore {
			t.Errorf("%s: exec.vec_pipelines did not advance (%d -> %d)", name, pipesBefore, pipesAfter)
		}
		d := metricValue(t, e, "exec.row_ops") - opsBefore
		if d != rowOps {
			t.Errorf("%s: exec.row_ops moved by %d, want %d", name, d, rowOps)
		}
		t.Logf("%s: row_ops=%d", name, d)
		text, err := e.ExplainAnalyze("", sql)
		if err != nil {
			t.Fatal(err)
		}
		root := strings.SplitN(text, "\n", 2)[0]
		if want := fmt.Sprintf("row_ops=%d", rowOps); !strings.Contains(root, want) {
			t.Errorf("%s: EXPLAIN ANALYZE root line lacks %s:\n%s", name, want, text)
		}
	}

	t.Run("fig6-limit-aj", func(t *testing.T) {
		e, err := experiments.NewTPCHEngine(tpch.TinyScale())
		if err != nil {
			t.Fatal(err)
		}
		check(t, "Fig. 6", e, experiments.LimitAJQuery().SQL, 0)
	})

	t.Run("fig4-count-star", func(t *testing.T) {
		e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
		if err != nil {
			t.Fatal(err)
		}
		check(t, "Fig. 4", e, `select count(*) from JournalEntryItemBrowser`, 1)
	})
}

// vecFallbackNames lists the exec.vec_fallbacks.<reason> counters.
var vecFallbackNames = []string{
	"exec.vec_fallbacks.expression",
	"exec.vec_fallbacks.or",
	"exec.vec_fallbacks.sort",
	"exec.vec_fallbacks.union",
	"exec.vec_fallbacks.distinct",
	"exec.vec_fallbacks.analyze_parallel",
}

// vecFallbackTotal sums the exec.vec_fallbacks.* counters.
func vecFallbackTotal(t *testing.T, e *engine.Engine) int64 {
	t.Helper()
	var sum int64
	for _, name := range vecFallbackNames {
		sum += metricValue(t, e, name)
	}
	return sum
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

// TestVecFallbackExplainReasons checks the per-operator observability
// surface over all four decline labels: the operator the batch compiler
// declined carries vec_fallback=<label> in EXPLAIN (a build-only pass
// that moves no executor counter) and in EXPLAIN ANALYZE (which also
// bumps exec.vec_fallbacks.<label>, as plain execution does).
func TestVecFallbackExplainReasons(t *testing.T) {
	e := equivEngine(t)

	cases := []struct {
		name, label, op, sql string
	}{
		{"division", "expression", "Project", `select l_orderkey, l_extendedprice / l_quantity from lineitem`},
		{"mod", "expression", "Project", `select o_orderkey, mod(o_orderkey, 7) from orders`},
		{"to-decimal", "expression", "Project", `select o_orderkey, to_decimal(o_totalprice, 1) from orders`},
		{"or-branch", "or", "Filter", `select o_orderkey from orders where o_orderkey < 10 or o_totalprice / 2 > 1000.00`},
		{"union-of-aggregates", "union", "UnionAll", `select o_orderstatus s, count(*) c from orders group by o_orderstatus
			union all select c_mktsegment, count(*) from customer group by c_mktsegment`},
		{"count-distinct", "distinct", "GroupBy", `select count(distinct o_custkey) from orders`},
		// A join over an aggregate is no batch source, so neither is the
		// DISTINCT above it (a join of scans is: see the battery).
		{"distinct-over-join", "distinct", "Distinct", `select distinct c_mktsegment from
			(select o_custkey k, count(*) n from orders group by o_custkey) t inner join customer on k = c_custkey`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metric := "exec.vec_fallbacks." + tc.label
			want := "vec_fallback=" + tc.label

			before, pipes := vecFallbackTotal(t, e), metricValue(t, e, "exec.vec_pipelines")
			text, err := e.Explain("", tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if line := planLine(t, text, tc.op); !strings.Contains(line, want) {
				t.Errorf("EXPLAIN %s line missing %q:\n%s", tc.op, want, text)
			}
			if n := strings.Count(text, "vec_fallback="); n != 1 {
				t.Errorf("EXPLAIN carries %d labels, want 1:\n%s", n, text)
			}
			if vecFallbackTotal(t, e) != before || metricValue(t, e, "exec.vec_pipelines") != pipes {
				t.Errorf("plain EXPLAIN moved executor counters")
			}

			labelBefore := metricValue(t, e, metric)
			text, err = e.ExplainAnalyze("", tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if line := planLine(t, text, tc.op); !strings.Contains(line, want) {
				t.Errorf("EXPLAIN ANALYZE %s line missing %q:\n%s", tc.op, want, text)
			}
			if d := metricValue(t, e, metric) - labelBefore; d != 1 {
				t.Errorf("%s moved by %d under EXPLAIN ANALYZE, want 1", metric, d)
			}
			if d := vecFallbackTotal(t, e) - before; d != 1 {
				t.Errorf("exec.vec_fallbacks.* moved by %d in total, want 1", d)
			}
		})
	}
}

// TestVecCompilerDeclinesJoinShapes covers the join checks the batch
// compiler owns: semi, anti, non-equi and equi-with-residual joins have
// no batch operator, so they decline to the row join (labelled on the
// join, results identical to the all-row engine). A batch join is a
// batch source, so a Filter above it that has no kernel is the filter's
// own coverage gap: labelled once, on the filter, with the join below it
// still running in batch mode.
func TestVecCompilerDeclinesJoinShapes(t *testing.T) {
	e := equivEngine(t)
	rowOpts := engine.Options{DisableVectorize: true}

	declined := []struct{ name, op, sql string }{
		{"semi", "SemiJoin", `select c_custkey from customer where c_custkey in
			(select o_custkey from orders where o_totalprice > 500.00) order by c_custkey`},
		{"anti", "AntiJoin", `select c_custkey from customer where c_custkey not in
			(select o_custkey from orders) order by c_custkey`},
		{"non-equi", "InnerJoin", `select c_custkey, o_orderkey from customer inner join orders
			on c_custkey < o_custkey where o_orderkey < 5 order by c_custkey, o_orderkey`},
		{"residual", "InnerJoin", `select c_custkey, o_orderkey from customer inner join orders
			on c_custkey = o_custkey and o_totalprice > c_acctbal order by c_custkey, o_orderkey`},
	}
	for _, tc := range declined {
		t.Run(tc.name, func(t *testing.T) {
			want := runMeta(t, e, tc.sql, rowOpts, core.ProfileHANA)
			got := runMeta(t, e, tc.sql, e.Options(), core.ProfileHANA)
			requireSameRows(t, tc.name, tc.sql, want, got)

			text, err := e.ExplainAnalyze("", tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			line := planLine(t, text, tc.op)
			if !strings.Contains(line, "mode=row") || !strings.Contains(line, "vec_fallback=expression") {
				t.Errorf("%s did not decline to the row join:\n%s", tc.op, text)
			}
		})
	}

	t.Run("filter-above-join", func(t *testing.T) {
		q := `select o_orderkey from orders inner join customer on o_custkey = c_custkey
			where o_totalprice / 2 > c_acctbal`
		before := vecFallbackTotal(t, e)
		text, err := e.ExplainAnalyze("", q)
		if err != nil {
			t.Fatal(err)
		}
		line := planLine(t, text, "Filter")
		if !strings.Contains(line, "mode=row") || !strings.Contains(line, "vec_fallback=expression") {
			t.Errorf("division filter did not decline to row mode with its label:\n%s", text)
		}
		if line := planLine(t, text, "InnerJoin"); !strings.Contains(line, "mode=vector") {
			t.Errorf("join below the filter did not vectorize:\n%s", text)
		}
		if n := strings.Count(text, "vec_fallback="); n != 1 {
			t.Errorf("plan carries %d labels, want the filter's alone:\n%s", n, text)
		}
		if d := vecFallbackTotal(t, e) - before; d != 1 {
			t.Errorf("exec.vec_fallbacks.* moved by %d, want 1", d)
		}
	})
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
		pipes, fallbacks := metricValue(t, e, "exec.vec_pipelines"), vecFallbackTotal(t, e)
		got, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if metricValue(t, e, "exec.vec_pipelines") <= pipes {
			t.Errorf("%q: unoptimized plan did not advance exec.vec_pipelines", q)
		}
		if d := vecFallbackTotal(t, e) - fallbacks; d != 0 {
			t.Errorf("%q: unoptimized plan counted %d fallbacks", q, d)
		}
		requireSameRows(t, "unoptimized", q, runMeta(t, e, q, e.Options(), core.ProfileHANA), got)

		// EXPLAIN ANALYZE-style: build the same bound-only plan under
		// instrumentation, as the engine does, and read each operator's
		// executor mode.
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
				if st := builder.NodeStats(n); st == nil || st.Mode != "vector" {
					t.Errorf("%q: %T ran %+v, want mode=vector", q, n, st)
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
// the vectorized pipeline must keep running end to end — every
// exec.vec_fallbacks.* counter stays flat and exec.vec_pipelines keeps
// advancing — whatever fragment layout the maintenance loop leaves
// behind.
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

	fallbackNames := []string{
		"exec.vec_fallbacks.expression",
		"exec.vec_fallbacks.or",
		"exec.vec_fallbacks.sort",
		"exec.vec_fallbacks.union",
		"exec.vec_fallbacks.distinct",
		"exec.vec_fallbacks.analyze_parallel",
	}
	before := make(map[string]int64, len(fallbackNames))
	for _, name := range fallbackNames {
		before[name] = metricValue(t, e, name)
	}
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

	for _, name := range fallbackNames {
		if d := metricValue(t, e, name) - before[name]; d != 0 {
			t.Errorf("%s moved by %d under churn; paging query fell back", name, d)
		}
	}
	if pipesAfter := metricValue(t, e, "exec.vec_pipelines"); pipesAfter < pipesBefore+25 {
		t.Errorf("exec.vec_pipelines advanced only %d in 25 queries", pipesAfter-pipesBefore)
	}
}
