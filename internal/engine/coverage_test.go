package engine

import (
	"strings"
	"testing"
)

func TestExplainRawAndMergeAll(t *testing.T) {
	e := newTestEngine(t)
	raw, err := e.ExplainRaw("", `select name from emp where dept_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw, "Scan emp") {
		t.Fatalf("raw plan:\n%s", raw)
	}
	before := mustQuery(t, e, `select count(*), sum(salary) from emp`)
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	after := mustQuery(t, e, `select count(*), sum(salary) from emp`)
	if before.Rows[0][0].Int() != after.Rows[0][0].Int() ||
		before.Rows[0][1].String() != after.Rows[0][1].String() {
		t.Fatal("MergeAllDeltas changed results")
	}
	// Zone maps active after the merge: a range query still agrees.
	r := mustQuery(t, e, `select count(*) from emp where id >= 11 and id <= 12`)
	if r.Rows[0][0].Int() != 2 {
		t.Fatalf("range count = %v", r.Rows[0][0])
	}
}

// Exercise the aggregate-item decomposition paths: complex expressions
// over aggregates and group columns.
func TestAggregateItemShapes(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `
		select dept_id,
		       case when count(*) > 1 then 'multi' else 'single' end size_class,
		       count(*) in (1, 2) small,
		       sum(salary) is null no_data,
		       count(*) between 1 and 10 sane,
		       -count(*) neg,
		       abs(sum(salary) - sum(salary)) zero,
		       coalesce(max(name), 'none') top_name
		from emp group by dept_id order by dept_id`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row[1].Str() != "multi" || !row[2].Bool() || row[3].Bool() != false || !row[4].Bool() {
		t.Fatalf("row = %v", row)
	}
	if row[5].Int() != -2 {
		t.Fatalf("neg = %v", row[5])
	}
	if row[6].Decimal().Float64() != 0 {
		t.Fatalf("zero = %v", row[6])
	}
	// NOT over aggregate comparisons.
	r = mustQuery(t, e, `select dept_id from emp group by dept_id having not (count(*) > 1)`)
	if len(r.Rows) != 0 {
		t.Fatalf("having not: %v", r.Rows)
	}
}

// EXISTS whose subquery contains a join: correlated conjuncts are lifted
// through it and dropped projections re-exposed.
func TestExistsOverJoinSubquery(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `
		select d.name from dept d
		where exists (
			select 1 from emp e inner join dept d2 on e.dept_id = d2.id
			where e.dept_id = d.id and e.salary > 85.00
		) order by d.name`)
	var got []string
	for _, row := range r.Rows {
		got = append(got, row[0].Str())
	}
	if strings.Join(got, ",") != "eng" {
		t.Fatalf("got %v", got)
	}
}

// ExplainAnalyze on a fixed dataset: every operator line carries actual
// rows/timings, the counts match the data, and blocking operators
// report hash-build sizes.
func TestExplainAnalyzeShape(t *testing.T) {
	e := newTestEngine(t)
	out, err := e.ExplainAnalyze("", `
		select d.name, count(*) from emp e inner join dept d on e.dept_id = d.id
		group by d.name`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	find := func(substr string) string {
		t.Helper()
		for _, l := range lines {
			if strings.Contains(l, substr) {
				return l
			}
		}
		t.Fatalf("no %q line in:\n%s", substr, out)
		return ""
	}
	for _, l := range lines {
		if !strings.Contains(l, "[rows=") || !strings.Contains(l, "time=") {
			t.Fatalf("unannotated operator line %q in:\n%s", l, out)
		}
	}
	if l := find("Scan emp"); !strings.Contains(l, "rows=4") {
		t.Fatalf("emp scan actuals: %s", l)
	}
	if l := find("Scan dept"); !strings.Contains(l, "rows=3") {
		t.Fatalf("dept scan actuals: %s", l)
	}
	// Two departments have employees.
	if l := find("GroupBy"); !strings.Contains(l, "rows=2") || !strings.Contains(l, "build_rows=2") {
		t.Fatalf("group-by actuals: %s", l)
	}
	// The hash join builds on dept (3 rows) and emits one row per emp.
	if l := find("Join"); !strings.Contains(l, "rows=4") || !strings.Contains(l, "build_rows=3") {
		t.Fatalf("join actuals: %s", l)
	}
}

// Engine.Metrics stitches executor, plan-cache, and storage counters
// into one snapshot.
func TestEngineMetricsSnapshot(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	mustQuery(t, e, `select count(*) from emp`)
	mustQuery(t, e, `select count(*) from emp`)
	// A second shape, sent with two literals: its template is planned
	// once and instantiated once.
	mustQuery(t, e, `select count(*) from emp where id > 10`)
	mustQuery(t, e, `select count(*) from emp where id > 11`)
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics()
	want := func(name string, min int64) {
		t.Helper()
		v, ok := snap.Get(name)
		if !ok {
			t.Fatalf("metric %s missing from snapshot:\n%s", name, snap)
		}
		if v < min {
			t.Fatalf("%s = %d, want >= %d\n%s", name, v, min, snap)
		}
	}
	want("engine.queries", 4)
	want("engine.rows_returned", 4)
	want("engine.query_latency_ns.count", 4)
	want("plancache.hits", 2) // the repeat and the instantiation
	want("plancache.misses", 2)
	want("plancache.entries", 2)
	want("plancache.template_hits", 1)
	want("plancache.evictions", 0)
	want("storage.commits", 2)       // the two fixture inserts
	want("storage.rows_inserted", 7) // 3 dept + 4 emp
	want("storage.snapshots", 2)
	want("storage.delta_merges", 2)
	if v, _ := snap.Get("engine.query_errors"); v != 0 {
		t.Fatalf("query_errors = %d", v)
	}
	if _, err := e.Query(`select broken from nowhere`); err == nil {
		t.Fatal("expected error")
	}
	snap = e.Metrics()
	want("engine.query_errors", 1)
}
