package engine

import (
	"slices"
	"testing"
)

func cacheEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(t)
	mustExec(t, e, `
		create view dept_totals as
		select d.name dname, count(*) cnt, sum(e.salary) total
		from emp e inner join dept d on e.dept_id = d.id
		group by d.name`)
	return e
}

func TestStaticCachedView(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("dept_totals", false); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryCached("", `select dname, cnt from dept_totals order by dname`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// A write makes the SCV stale; it serves the old snapshot until
	// refreshed (the paper's "delayed snapshot").
	mustExec(t, e, `insert into emp values (20, 'zoe', 3, 50.00)`)
	stale, err := e.CacheStale("dept_totals")
	if err != nil {
		t.Fatal(err)
	}
	if !stale {
		t.Fatal("cache should be stale after a base-table write")
	}
	res, err = e.QueryCached("", `select count(*) from dept_totals`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("SCV must serve the stale snapshot, got %v groups", res.Rows[0][0])
	}
	if err := e.RefreshCache("dept_totals"); err != nil {
		t.Fatal(err)
	}
	res, err = e.QueryCached("", `select count(*) from dept_totals`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("after refresh: %v groups, want 3 (hr now has an employee)", res.Rows[0][0])
	}
}

func TestDynamicCachedView(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("dept_totals", true); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `insert into emp values (21, 'amy', 3, 42.00)`)
	// DCV refreshes on access: up-to-date without an explicit refresh.
	res, err := e.QueryCached("", `select count(*) from dept_totals`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("DCV should be up to date, got %v groups", res.Rows[0][0])
	}
	// Cached and uncached answers agree.
	direct, err := e.Query(`select count(*) from dept_totals`)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Rows[0][0].Int() != res.Rows[0][0].Int() {
		t.Fatal("cached and direct answers diverge")
	}
}

func TestCacheErrorsAndDrop(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("missing", false); err == nil {
		t.Fatal("caching a missing view should fail")
	}
	if err := e.CreateCachedView("dept_totals", false); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateCachedView("dept_totals", false); err == nil {
		t.Fatal("double-caching should fail")
	}
	if err := e.RefreshCache("nope"); err == nil {
		t.Fatal("refreshing uncached view should fail")
	}
	if err := e.DropCachedView("dept_totals"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropCachedView("dept_totals"); err == nil {
		t.Fatal("double drop should fail")
	}
	// After dropping, QueryCached falls back to the live view.
	res, err := e.QueryCached("", `select count(*) from dept_totals`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("fallback query = %v", res.Rows[0][0])
	}
}

func TestBaseTablesOfNestedViews(t *testing.T) {
	e := cacheEngine(t)
	mustExec(t, e, `create view over_totals as select dname from dept_totals where cnt > 0`)
	if err := e.CreateCachedView("over_totals", false); err != nil {
		t.Fatal(err)
	}
	info, ok := e.Catalog().Cache("over_totals")
	if !ok {
		t.Fatal("cache missing")
	}
	if len(info.BaseTables) != 2 {
		t.Fatalf("base tables = %v, want emp+dept", info.BaseTables)
	}
}

// TestDropViewDropsItsCache: DROP VIEW of a cached view drops its cache
// and the cache's __cache_ table in the same statement, so a view of the
// same name can be created and cached again.
func TestDropViewDropsItsCache(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("dept_totals", false); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `drop view dept_totals`)
	if _, ok := e.cat.Cache("dept_totals"); ok {
		t.Fatal("DROP VIEW left the cache registered")
	}
	if _, ok := e.db.Table("__cache_dept_totals"); ok {
		t.Fatal("DROP VIEW left the cache's table behind")
	}
	mustExec(t, e, `create view dept_totals as select name dname from dept`)
	if err := e.CreateCachedView("dept_totals", false); err != nil {
		t.Fatal(err)
	}
	q := `select dname from dept_totals order by dname`
	got, err := e.QueryCached("", q)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustQuery(t, e, q); !slices.Equal(rowStrings(got), rowStrings(want)) {
		t.Fatalf("QueryCached = %v, live = %v", rowStrings(got), rowStrings(want))
	}
}
