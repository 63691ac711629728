package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// bulkInts inserts n rows {k, "pad<k>"} into a (k bigint, pad varchar)
// table through the storage layer — one commit, so at most one stats
// epoch bump.
func bulkInts(t *testing.T, e *Engine, table string, from, n int) {
	t.Helper()
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(from + i)),
			types.NewString(fmt.Sprintf("pad%d", from+i)),
		})
	}
	if err := e.db.InsertRows(table, rows); err != nil {
		t.Fatal(err)
	}
}

// skewedEngine builds a 5-row probe table and a 2000-row build table
// (probe keys repeat through the big table, so the join has matches).
func skewedEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e,
		`create table probe (k bigint primary key, pad varchar)`,
		`create table big (k bigint, pad varchar)`)
	bulkInts(t, e, "probe", 0, 5)
	rows := make([]types.Row, 0, 2000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i % 5)), types.NewString("x")})
	}
	if err := e.db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func findJoinNode(n plan.Node) *plan.Join {
	if j, ok := n.(*plan.Join); ok {
		return j
	}
	for _, c := range n.Inputs() {
		if j := findJoinNode(c); j != nil {
			return j
		}
	}
	return nil
}

// TestCostBasedBuildSide: with the 5-row table on the left of a join
// against 2000 rows, the cost pass must flag BuildLeft, the executor
// must build the 5-row hash table, and the observability surface must
// show the decision and its estimates.
func TestCostBasedBuildSide(t *testing.T) {
	e := skewedEngine(t)
	q := `select count(*) from probe p inner join big b on p.k = b.k`

	tr, err := e.TraceQuery("", q)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Fired("cost-build-side") {
		t.Fatalf("cost-build-side did not fire:\n%s", tr)
	}

	out, err := e.Explain("", q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "est_rows=") {
		t.Fatalf("EXPLAIN missing est_rows annotations:\n%s", out)
	}

	az, err := e.ExplainAnalyze("", q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(az, "build_rows=5") {
		t.Fatalf("hash join did not build on the 5-row side:\n%s", az)
	}
	if !strings.Contains(az, "q_err=") {
		t.Fatalf("EXPLAIN ANALYZE missing q-error annotations:\n%s", az)
	}

	// Same answer with costing off, and no estimate annotations.
	want := mustQuery(t, e, q)
	e.EnableCosting(false)
	got := mustQuery(t, e, q)
	if want.Rows[0][0].Int() != got.Rows[0][0].Int() {
		t.Fatalf("costing changed the answer: %v vs %v", want.Rows[0], got.Rows[0])
	}
	off, err := e.Explain("", q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "est_rows=") {
		t.Fatalf("est_rows rendered with costing off:\n%s", off)
	}
	azOff, err := e.ExplainAnalyze("", q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(azOff, "build_rows=2000") {
		t.Fatalf("with costing off the executor should fall back to building right:\n%s", azOff)
	}
}

// TestCostJoinReorder: a three-table inner-join chain written largest
// first must be reordered to start from the 10-row table, without
// changing the answer or the output column order.
func TestCostJoinReorder(t *testing.T) {
	e := New()
	mustExec(t, e,
		`create table fat (k bigint primary key, pad varchar)`,
		`create table mid (k bigint primary key, pad varchar)`,
		`create table thin (k bigint primary key, pad varchar)`)
	bulkInts(t, e, "fat", 0, 500)
	bulkInts(t, e, "mid", 0, 400)
	bulkInts(t, e, "thin", 0, 10)
	q := `select fat.k, mid.pad, thin.pad
	      from fat
	      inner join mid on fat.k = mid.k
	      inner join thin on mid.k = thin.k
	      order by fat.k`

	tr, err := e.TraceQuery("", q)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Fired("cost-join-reorder") {
		t.Fatalf("cost-join-reorder did not fire:\n%s", tr)
	}

	want := mustQuery(t, e, q)
	e.EnableCosting(false)
	got := mustQuery(t, e, q)
	e.EnableCosting(true)
	if len(want.Rows) != 10 || len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: costed=%d uncosted=%d, want 10", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if want.Rows[i][c].Key() != got.Rows[i][c].Key() {
				t.Fatalf("row %d col %d differs after reorder: %v vs %v",
					i, c, want.Rows[i], got.Rows[i])
			}
		}
	}

	// The chain must not be reordered across a cardinality specification:
	// the spec binds to the join it was written on.
	qSpec := `select fat.k from fat
	          inner join mid on fat.k = mid.k
	          inner many to exact one join thin on mid.k = thin.k
	          order by fat.k limit 5`
	trSpec, err := e.TraceQuery("", qSpec)
	if err != nil {
		t.Fatal(err)
	}
	if trSpec.Fired("cost-join-reorder") {
		t.Fatalf("reorder crossed a cardinality-specified join:\n%s", trSpec)
	}
}

// TestPlanCacheStatsEpochFlipsBuildSide is the satellite-2 regression
// test: a cached plan's build side was chosen from bind-time row
// counts; after a bulk load crosses an order-of-magnitude bucket the
// stats epoch moves, the cache must drop the plan, and the replanned
// join must build on the other side.
func TestPlanCacheStatsEpochFlipsBuildSide(t *testing.T) {
	e := New()
	mustExec(t, e,
		`create table probe (k bigint primary key, pad varchar)`,
		`create table big (k bigint, pad varchar)`)
	bulkInts(t, e, "probe", 0, 5)
	rows := make([]types.Row, 0, 2000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i % 5)), types.NewString("x")})
	}
	if err := e.db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	e.EnablePlanCache(true)

	st, err := sql.Parse(`select count(*) from probe p inner join big b on p.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	q := st.(*sql.Query)

	p1, _, err := e.planStatement(context.Background(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	j1 := findJoinNode(p1.Root)
	if j1 == nil || !j1.BuildLeft {
		t.Fatalf("initial plan should build on the 5-row left side: %+v", j1)
	}
	p1b, _, err := e.planStatement(context.Background(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	if p1b != p1 {
		t.Fatal("second lookup should hit the cache")
	}

	// Bulk-load probe from 5 to 50005 rows: the live row count crosses
	// several order-of-magnitude buckets in one commit, bumping the
	// coarse stats epoch.
	before := e.db.StatsEpoch()
	bulkInts(t, e, "probe", 5, 50000)
	if e.db.StatsEpoch() == before {
		t.Fatal("bulk load did not move the stats epoch")
	}

	p2, _, err := e.planStatement(context.Background(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("stale plan served after the stats epoch moved")
	}
	j2 := findJoinNode(p2.Root)
	if j2 == nil || j2.BuildLeft {
		t.Fatalf("replanned join should build on the now-smaller right side: %+v", j2)
	}

	// Steady state: no further invalidation without data movement.
	p2b, _, err := e.planStatement(context.Background(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	if p2b != p2 {
		t.Fatal("cache did not re-prime after the replan")
	}
}

// TestStatsRefreshMetricAndSnapshot covers the storage statistics
// surface end to end: RefreshStats fills distinct/min-max/null columns,
// the stats_refreshes counter moves (explicitly, and in a merge or
// vacuum once enough rows changed to make a refresh due), and bind-time
// snapshots carry the numbers into plans.
func TestStatsRefreshMetricAndSnapshot(t *testing.T) {
	e := skewedEngine(t)
	metric := func() int64 {
		for _, m := range e.Metrics() {
			if m.Name == "storage.stats_refreshes" {
				return m.Value
			}
		}
		t.Fatal("storage.stats_refreshes not registered")
		return 0
	}

	before := metric()
	tbl, _ := e.db.Table("big")
	tbl.RefreshStats()
	if metric() != before+1 {
		t.Fatalf("explicit refresh did not move stats_refreshes: %d -> %d", before, metric())
	}
	st := tbl.StatsSnapshot()
	if st.Rows != 2000 {
		t.Fatalf("rows = %d, want 2000", st.Rows)
	}
	if st.Cols[0].Distinct != 5 {
		t.Fatalf("big.k distinct = %d, want 5", st.Cols[0].Distinct)
	}
	if !st.Cols[0].HasMinMax || st.Cols[0].Min.Int() != 0 || st.Cols[0].Max.Int() != 4 {
		t.Fatalf("big.k min/max = %+v, want [0, 4]", st.Cols[0])
	}

	// Maintenance refreshes only when due: nothing changed since the
	// explicit refresh, so the merge keeps the statistics; deleting 400
	// of 2000 rows is past the 1/8 line, so the vacuum recomputes them.
	atMerge := metric()
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if metric() != atMerge {
		t.Fatal("delta merge refreshed statistics that no change had made stale")
	}
	mustExec(t, e, `delete from big where k = 4`)
	atVacuum := metric()
	if _, err := e.db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if metric() <= atVacuum {
		t.Fatal("vacuum did not refresh statistics that were due")
	}
	st = tbl.StatsSnapshot()
	if st.Rows != 1600 || st.Cols[0].Distinct != 4 || st.Cols[0].Max.Int() != 3 {
		t.Fatalf("post-vacuum stats stale: %+v", st)
	}

	// The snapshot reaches plans through the binder.
	p, err := e.PlanQuery("", `select k from big`, false)
	if err != nil {
		t.Fatal(err)
	}
	var scan *plan.Scan
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scan = s
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(p.Root)
	if scan == nil || scan.Info.Stats == nil || scan.Info.Stats.Rows != 1600 {
		t.Fatalf("bind-time stats snapshot missing or stale: %+v", scan)
	}
}
