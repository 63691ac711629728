package engine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/tpch"
	"vdm/internal/types"
)

// equivEngine builds the TPC-H + Active/Draft fixture and leaves the
// storage in a mixed state: most rows merged into the main store, then
// post-merge DML so the delta store and dead row versions are non-empty.
// Batch scans must see exactly what row scans see across all of it.
func equivEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := experiments.NewTPCHEngine(tpch.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	script := `
		delete from orders where o_orderkey = 7;
		update customer set c_acctbal = c_acctbal + 10.00 where c_custkey = 3;
		insert into orders values (90001, 1, 'O', 123.45, null, '2-HIGH');
		insert into lineitem values (90001, 1, 1, 1, 4.00, 100.00, 0.00, 0.00, 'N', null);
		delete from lineitem where l_orderkey = 11 and l_linenumber = 2;
		insert into sales_draft values (9001, 55.50, 'draft', 'ext9001');
	`
	if err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return e
}

// equivQueries is a battery of handcrafted shapes covering every batch
// operator — fused scan/filter/project pipelines, aggregation (plain,
// scalar, AVG), top-k fusion with ties and offsets, DISTINCT, hash
// joins — plus shapes the vector builder declines (DISTINCT aggregates,
// semi/anti joins), whose row operators run above batch scans.
func equivQueries() []experiments.NamedQuery {
	return []experiments.NamedQuery{
		{Name: "scan", SQL: `select o_orderkey, o_totalprice from orders`},
		{Name: "filter", SQL: `select o_orderkey from orders where o_totalprice > 1000.00`},
		{Name: "project-expr", SQL: `select l_orderkey, l_quantity * l_extendedprice from lineitem`},
		{Name: "scalar-agg", SQL: `select count(*), sum(l_quantity), min(l_extendedprice), max(l_extendedprice) from lineitem`},
		{Name: "scalar-agg-filtered", SQL: `select count(*), avg(l_quantity) from lineitem where l_linenumber = 1`},
		{Name: "group-agg", SQL: `select o_orderstatus, count(*), sum(o_totalprice) from orders group by o_orderstatus`},
		{Name: "group-agg-avg", SQL: `select l_linenumber, avg(l_quantity), min(l_orderkey) from lineitem group by l_linenumber`},
		{Name: "group-by-key", SQL: `select l_orderkey, sum(l_quantity) from lineitem group by l_orderkey`},
		{Name: "count-distinct", SQL: `select o_orderstatus, count(distinct o_custkey) from orders group by o_orderstatus`},
		{Name: "distinct", SQL: `select distinct o_custkey from orders`},
		{Name: "top-k", SQL: `select o_orderkey, o_totalprice from orders order by o_totalprice desc limit 10`},
		{Name: "top-k-offset", SQL: `select c_custkey from customer order by c_acctbal limit 7 offset 3`},
		{Name: "top-k-ties", SQL: `select l_orderkey, l_linenumber from lineitem order by l_linenumber limit 25`},
		{Name: "join", SQL: `select o_orderkey, c_name from orders inner join customer on o_custkey = c_custkey`},
		{Name: "join-agg", SQL: `select c_mktsegment, count(*) from orders inner join customer on o_custkey = c_custkey group by c_mktsegment`},
		{Name: "semi", SQL: `select c_custkey from customer where c_custkey in (select o_custkey from orders where o_totalprice > 500.00)`},
		{Name: "anti", SQL: `select c_custkey from customer where c_custkey not in (select o_custkey from orders)`},
		{Name: "union-all", SQL: `select id, amount from sales_active union all select id, amount from sales_draft`},
	}
}

// rowsEqual compares two result rows value by value: exact via the
// collation key for everything except floats, which only need to agree
// to a relative epsilon (rewrites such as eager aggregation may
// associate a float SUM/AVG differently).
func rowsEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		va, vb := a[i], b[i]
		if va.Typ == types.TFloat && vb.Typ == types.TFloat && !va.IsNull() && !vb.IsNull() {
			fa, fb := va.Float(), vb.Float()
			if fa == fb {
				continue
			}
			if math.Abs(fa-fb) > 1e-9*math.Max(math.Abs(fa), math.Abs(fb)) {
				return false
			}
			continue
		}
		if va.Key() != vb.Key() {
			return false
		}
	}
	return true
}

func formatRow(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, " | ")
}

// runBoth executes the query on the row executor (DisableVectorize) and
// under the given vectorized options on the same engine and requires the
// ordered row sequences to match: both executors emit scan order, so
// the results must be identical, not merely multiset-equal.
func runBoth(t *testing.T, e *engine.Engine, name, sqlText string, vec engine.Options) {
	t.Helper()
	saved := e.Options()
	defer e.SetOptions(saved)

	e.SetOptions(engine.Options{DisableVectorize: true})
	row, err := e.Query(sqlText)
	if err != nil {
		t.Fatalf("%s: row: %v", name, err)
	}
	e.SetOptions(vec)
	got, err := e.Query(sqlText)
	if err != nil {
		t.Fatalf("%s: vector: %v", name, err)
	}
	if len(row.Rows) != len(got.Rows) {
		t.Errorf("%s: row %d rows, vector %d rows", name, len(row.Rows), len(got.Rows))
		return
	}
	for i := range row.Rows {
		if !rowsEqual(row.Rows[i], got.Rows[i]) {
			t.Errorf("%s: row %d differs:\n  row:    %s\n  vector: %s",
				name, i, formatRow(row.Rows[i]), formatRow(got.Rows[i]))
			return
		}
	}
}

// TestParallelEquivalence runs the handcrafted battery plus every
// experiment suite on the row executor and the vectorized one over the
// fixture's mixed main/delta/dead-version storage and diffs the ordered
// results. Seven-row batches force many batches per table, so batch
// edges land inside every fragment. (The name is from when this battery
// diffed morsel-parallel against serial execution.)
func TestParallelEquivalence(t *testing.T) {
	e := equivEngine(t)
	vec := engine.Options{BatchSize: 7}

	var suite []experiments.NamedQuery
	suite = append(suite, equivQueries()...)
	suite = append(suite, experiments.UAJQueries()...)
	suite = append(suite, experiments.ASJQueries()...)
	suite = append(suite, experiments.UnionUAJQueries()...)
	suite = append(suite, experiments.ASJNegativeQuery())
	suite = append(suite, experiments.ASJUnionAnchorQuery())
	suite = append(suite, experiments.CaseJoinQuery(false))
	suite = append(suite, experiments.CaseJoinQuery(true))

	for _, q := range suite {
		t.Run(q.Name, func(t *testing.T) {
			runBoth(t, e, q.Name, q.SQL, vec)
		})
	}
}

// TestParallelEquivalenceBatchSizes sweeps batch sizes around the
// fixture's table sizes, including 1 (every row its own batch) and a
// size larger than any table (single batch).
func TestParallelEquivalenceBatchSizes(t *testing.T) {
	e := equivEngine(t)
	queries := []experiments.NamedQuery{
		{Name: "agg", SQL: `select l_orderkey, sum(l_quantity), count(*) from lineitem group by l_orderkey`},
		{Name: "filter", SQL: `select o_orderkey from orders where o_totalprice > 1000.00`},
	}
	for _, size := range []int{1, 3, 64, 1 << 20} {
		for _, q := range queries {
			name := fmt.Sprintf("%s/batch=%d", q.Name, size)
			t.Run(name, func(t *testing.T) {
				runBoth(t, e, name, q.SQL, engine.Options{BatchSize: size})
			})
		}
	}
}

// TestPartitionedJoinEquivalence diffs the row and batch executors on a
// join with a 1500-row build side. Costing is off so the build lands on
// the big orders side instead of the 80-row customer side the
// cost-based pass would pick.
func TestPartitionedJoinEquivalence(t *testing.T) {
	sc := tpch.Scale{Customers: 80, Orders: 1500, LineitemsPerOrder: 1, Parts: 40, Suppliers: 10}
	e, err := experiments.NewTPCHEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableCosting(false)
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	q := `select c_custkey, o_orderkey, o_totalprice
	      from customer inner join orders on c_custkey = o_custkey`
	runBoth(t, e, "partitioned-join", q, engine.Options{})
}

// TestDisableVectorizeRunsRowExecutor pins that DisableVectorize runs
// every operator on the row iterators: EXPLAIN ANALYZE shows no batch
// operator and no batch pipeline starts.
func TestDisableVectorizeRunsRowExecutor(t *testing.T) {
	e := equivEngine(t)
	e.SetOptions(engine.Options{DisableVectorize: true})
	defer e.SetOptions(engine.Options{})

	pipelines := metricValue(t, e, "exec.vec_pipelines")
	q := `select o_orderstatus, count(*) from orders where o_totalprice > 100.00 group by o_orderstatus`
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err := e.ExplainAnalyze("", q)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, e, "exec.vec_pipelines"); v != pipelines {
		t.Errorf("exec.vec_pipelines advanced on the row path: %d -> %d", pipelines, v)
	}
	if !strings.Contains(out, "mode=row") || strings.Contains(out, "mode=vector") {
		t.Errorf("EXPLAIN ANALYZE is not the row executor:\n%s", out)
	}
}

func metricValue(t *testing.T, e *engine.Engine, name string) int64 {
	t.Helper()
	for _, m := range e.Metrics() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestTopKFusionMetricsAndExplain checks the observability surface of
// the batch executor: exec.vec_pipelines moves, and EXPLAIN ANALYZE
// reports the top-k fusion note while exec.topk_fusions advances.
func TestTopKFusionMetricsAndExplain(t *testing.T) {
	e := equivEngine(t)

	pipelines := metricValue(t, e, "exec.vec_pipelines")
	if _, err := e.Query(`select l_linenumber, sum(l_quantity) from lineitem group by l_linenumber`); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, e, "exec.vec_pipelines"); v <= pipelines {
		t.Errorf("exec.vec_pipelines did not advance: %d -> %d", pipelines, v)
	}

	fusions := metricValue(t, e, "exec.topk_fusions")
	out, err := e.ExplainAnalyze("", `select o_orderkey from orders order by o_totalprice desc limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "top_k=5") {
		t.Errorf("EXPLAIN ANALYZE missing top-k fusion note:\n%s", out)
	}
	if v := metricValue(t, e, "exec.topk_fusions"); v <= fusions {
		t.Errorf("exec.topk_fusions did not advance: %d -> %d", fusions, v)
	}
}
