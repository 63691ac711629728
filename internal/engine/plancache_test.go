package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"vdm/internal/catalog"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/storage"
	"vdm/internal/types"
)

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	q := `select name from emp where dept_id = 1 order by name`
	r1 := mustQuery(t, e, q)
	r2 := mustQuery(t, e, q)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatal("cached result differs")
	}
	hits, misses := e.PlanCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Cached plans still see new committed data (plans bind names, not
	// snapshots).
	mustExec(t, e, `insert into emp values (40, 'aaa', 1, 1.00)`)
	r3 := mustQuery(t, e, q)
	if len(r3.Rows) != len(r1.Rows)+1 {
		t.Fatalf("cached plan is stale: %d rows", len(r3.Rows))
	}
	// DDL invalidates: a view redefinition must take effect.
	mustExec(t, e, `create view v1 as select name from emp`)
	_ = mustQuery(t, e, `select * from v1`)
	if err := e.Catalog().DropView("v1"); err != nil {
		t.Fatal(err)
	}
	// DropView went around Exec, so invalidate via a DDL statement:
	mustExec(t, e, `create view v1 as select name n2 from emp`)
	r4 := mustQuery(t, e, `select * from v1`)
	if r4.Columns[0] != "n2" {
		t.Fatalf("stale plan after view redefinition: %v", r4.Columns)
	}
	// Different users and profiles key separately.
	if _, err := e.QueryAs("alice", q); err != nil {
		t.Fatal(err)
	}
	h2, m2 := e.PlanCacheStats()
	if m2 <= misses && h2 == hits {
		t.Fatal("user should key separately")
	}
	e.EnablePlanCache(false)
	if h, m := e.PlanCacheStats(); h != 0 || m != 0 {
		t.Fatal("disabled cache should report zeros")
	}
}

// TestPlanCacheDirectStorageDDLInvalidation is the regression test for
// DDL that bypasses the engine: dropping or creating tables directly on
// the storage DB never ran the engine's DDL invalidation, so the cache
// kept serving plans bound against the dropped table. The cache now
// checks the storage schema epoch on every lookup.
func TestPlanCacheDirectStorageDDLInvalidation(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	q := `select name from emp order by name`
	r1 := mustQuery(t, e, q)
	if len(r1.Rows) != 4 {
		t.Fatalf("seed rows = %d, want 4", len(r1.Rows))
	}
	_ = mustQuery(t, e, q)
	hits0, misses0 := e.PlanCacheStats()
	if hits0 != 1 || misses0 != 1 {
		t.Fatalf("warmup hits=%d misses=%d, want 1/1", hits0, misses0)
	}

	// Rebuild emp directly on the storage DB — the engine's DDL path
	// never runs.
	db := e.DB()
	if err := db.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("emp", types.Schema{
		{Name: "id", Type: types.TInt, NotNull: true},
		{Name: "name", Type: types.TString, NotNull: true},
		{Name: "dept_id", Type: types.TInt, NotNull: true},
		{Name: "salary", Type: types.TDecimal},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddKey(storage.KeyConstraint{Name: "pk", Columns: []int{0}, Primary: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("emp", []types.Row{
		{types.NewInt(77), types.NewString("zoe"), types.NewInt(1), types.Value{}},
	}); err != nil {
		t.Fatal(err)
	}

	// The next lookup must notice the schema epoch moved: a miss, a
	// fresh plan, and results from the rebuilt table.
	r2 := mustQuery(t, e, q)
	hits1, misses1 := e.PlanCacheStats()
	if hits1 != hits0 || misses1 != misses0+1 {
		t.Fatalf("stale plan served across direct DDL: hits %d->%d misses %d->%d",
			hits0, hits1, misses0, misses1)
	}
	if len(r2.Rows) != 1 || r2.Rows[0][0].Str() != "zoe" {
		t.Fatalf("query after rebuild returned %v, want the new row", r2.Rows)
	}
	// And the re-primed cache serves hits again until the next epoch bump.
	_ = mustQuery(t, e, q)
	if h, m := e.PlanCacheStats(); h != hits1+1 || m != misses1 {
		t.Fatalf("cache did not re-prime: hits=%d misses=%d", h, m)
	}
}

// addDAC restricts view to dept_id = 1 through the catalog, as
// s4.attachDAC and vdm.ExtendWithCustomField do, around Exec.
func addDAC(t *testing.T, e *Engine, view string) {
	t.Helper()
	f, err := sql.ParseExpr("dept_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddDAC(view, catalog.DACPolicy{Name: "only_dept_1", Filter: f}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheSeesNewDAC is the regression test for catalog changes made
// around Exec: a plan cached before Catalog.AddDAC kept serving rows the
// new policy filters out. The catalog epoch now invalidates it.
func TestPlanCacheSeesNewDAC(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	mustExec(t, e, `create view emp_v as select id, name, dept_id from emp`)
	q := `select count(*) from emp_v`
	for range 2 {
		if r, err := e.QueryAs("bob", q); err != nil || r.Rows[0][0].Int() != 4 {
			t.Fatalf("before the policy: %v %v", r, err)
		}
	}
	addDAC(t, e, "emp_v")
	r, err := e.QueryAs("bob", q)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Rows[0][0].Int(); n != 2 {
		t.Fatalf("count(*) = %d after the DAC policy, want 2: a cached plan missed it", n)
	}
}

// TestPlanCacheDropsPlanThatStraddledCatalogChange plans a statement, has
// the catalog change before the plan reaches the cache — the window a
// concurrent AddDAC or view redefinition hits — and checks that the plan
// is dropped rather than served.
func TestPlanCacheDropsPlanThatStraddledCatalogChange(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	mustExec(t, e, `create view emp_v as select id, name, dept_id from emp`)
	q := `select count(*) from emp_v`
	body, err := sql.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	fp, vals := sql.Fingerprint(body)
	key := "bob\x00" + e.profile.Name + "\x00" + fp
	ep := e.cacheEpoch()
	if _, ok := e.plans.get(key, vals, ep); ok {
		t.Fatal("empty cache hit")
	}
	p, pinned, err := e.planPinned(context.Background(), "bob", body, true)
	if err != nil {
		t.Fatal(err)
	}
	addDAC(t, e, "emp_v") // lands while the statement is being planned
	e.plans.put(&variant{key: key, plan: p, vals: vals, pinned: pinned}, ep, e.cacheEpoch())
	if n := e.plans.len(); n != 0 {
		t.Fatalf("%d plans cached, want the straddling plan dropped", n)
	}
	r, err := e.QueryAs("bob", q)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Rows[0][0].Int(); n != 2 {
		t.Fatalf("count(*) = %d, want 2 under the policy", n)
	}
}

// TestPlanCacheBounded sends more statement shapes than the cache holds:
// results stay correct, the cache stays at its cap by evicting the least
// recently used plans, and an evicted shape is planned again.
func TestPlanCacheBounded(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	shape := func(i int) string { // the alias makes each text its own shape
		return fmt.Sprintf(`select count(*) as n%d from emp where dept_id = %d`, i, 1+i%2)
	}
	for i := range maxCachedPlans + 100 {
		r := mustQuery(t, e, shape(i))
		if want := int64(2); r.Rows[0][0].Int() != want {
			t.Fatalf("shape %d: count %d, want %d", i, r.Rows[0][0].Int(), want)
		}
	}
	if n := e.plans.len(); n != maxCachedPlans {
		t.Fatalf("%d plans cached, want the cap %d", n, maxCachedPlans)
	}
	if v := e.plans.evictions.Value(); v != 100 {
		t.Fatalf("evictions = %d, want 100", v)
	}
	_, misses := e.PlanCacheStats()
	mustQuery(t, e, shape(0)) // evicted first
	if _, m := e.PlanCacheStats(); m != misses+1 {
		t.Fatal("an evicted shape was served from the cache")
	}
	if n := e.plans.len(); n != maxCachedPlans {
		t.Fatalf("%d plans cached after re-planning, want %d", n, maxCachedPlans)
	}
}

// TestPlanCacheInstantiatesTemplates sends one shape with new literals:
// the first statement plans, the rest instantiate its template, and a
// literal a rewrite decided on (the folded 1 = 2) keys a new variant.
func TestPlanCacheInstantiatesTemplates(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	for _, c := range []struct {
		dept, rows int
	}{{1, 2}, {2, 2}, {3, 0}, {1, 2}} {
		r := mustQuery(t, e, fmt.Sprintf(`select name from emp where dept_id = %d`, c.dept))
		if len(r.Rows) != c.rows {
			t.Fatalf("dept %d: %d rows, want %d", c.dept, len(r.Rows), c.rows)
		}
	}
	hits, misses := e.PlanCacheStats()
	if hits != 3 || misses != 1 || e.plans.templateHits.Value() != 2 {
		t.Fatalf("hits=%d misses=%d template_hits=%d, want 3/1/2", hits, misses, e.plans.templateHits.Value())
	}
	// 1 < 2 + 0 folds to TRUE, pinning its literals: 3 < 2 + 0, the same
	// shape, is planned as a second variant, and 1 < 2 + 0 hits the first.
	for _, c := range []struct {
		a, b, rows int
	}{{1, 2, 4}, {3, 2, 0}, {1, 2, 4}} {
		r := mustQuery(t, e, fmt.Sprintf(`select name from emp where %d < %d + 0`, c.a, c.b))
		if len(r.Rows) != c.rows {
			t.Fatalf("%d < %d: %d rows, want %d", c.a, c.b, len(r.Rows), c.rows)
		}
	}
	if n := e.plans.len(); n != 3 {
		t.Fatalf("%d plans cached, want 3 (the dept_id template, two pinned variants)", n)
	}
	if h := e.plans.templateHits.Value(); h != 2 {
		t.Fatalf("template_hits = %d, want 2: a pinned variant was instantiated", h)
	}
}

// TestPlanCacheASJMatchesViewConstantByValue joins dept to a view that
// filters dept on a constant, while the statement filters on a literal:
// the self-join goes exactly when the two are equal. So the literal is
// pinned whether the match holds or not — the template planned for
// 'apj' is never instantiated for 'emea' — and the plan cached for
// 'emea' has eliminated the join, as a plan of the text would.
func TestPlanCacheASJMatchesViewConstantByValue(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `create view emea_dept as select id, name from dept where region = 'emea'`)
	e.EnablePlanCache(true)
	q := `select d.id, v.name from dept d left outer join emea_dept v on d.id = v.id where d.region = '%s'`
	for _, c := range []struct {
		region string
		named  int
	}{{"apj", 0}, {"emea", 2}, {"emea", 2}, {"apj", 0}} {
		r := mustQuery(t, e, fmt.Sprintf(q, c.region))
		named := 0
		for _, row := range r.Rows {
			if !row[1].IsNull() {
				named++
			}
		}
		if named != c.named {
			t.Fatalf("region %s: %d rows with a view name, want %d", c.region, named, c.named)
		}
	}
	if h := e.plans.templateHits.Value(); h != 0 {
		t.Fatalf("template_hits = %d, want 0: a plan was reused across the region the join elimination rests on", h)
	}
	joins := map[string]int{}
	for el := e.plans.lru.Front(); el != nil; el = el.Next() {
		v := el.Value.(*variant)
		joins[v.vals[1].Str()] = plan.CollectStats(v.plan.Root).Joins
	}
	if len(joins) != 2 || joins["emea"] != 0 || joins["apj"] != 1 {
		t.Fatalf("joins per cached region = %v, want emea:0 apj:1", joins)
	}
}

// TestPlanCacheConcurrent shares templates between goroutines: readers
// send three shapes with their own literals — instantiating, hitting and
// planning variants at once — while the catalog changes under them, and
// every result must be the one its literals ask for.
func TestPlanCacheConcurrent(t *testing.T) {
	e := newTestEngine(t)
	e.EnablePlanCache(true)
	mustExec(t, e, `create view emp_v as select id, name, dept_id from emp`)
	want := map[int]int64{1: 2, 2: 2, 3: 0}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				dept := 1 + (g+i)%3
				q := []string{
					`select count(*) from emp where dept_id = %d`,
					`select count(*) from emp_v where dept_id = %d and id > 0`,
					`select count(*) from emp where dept_id = %d and 1 < 2`,
				}[i%3]
				r, err := e.Query(fmt.Sprintf(q, dept))
				if err != nil {
					t.Error(err)
					return
				}
				if n := r.Rows[0][0].Int(); n != want[dept] {
					t.Errorf("dept %d: count %d, want %d", dept, n, want[dept])
					return
				}
			}
		}()
	}
	for i := range 20 { // catalog moves while the readers plan
		mustExec(t, e, fmt.Sprintf(`create view other_%d as select id from emp`, i))
	}
	wg.Wait()
}

func BenchmarkPlanCache(b *testing.B) {
	e := New()
	if err := e.ExecScript(`
		create table t (a bigint primary key, b varchar);
		insert into t values (1, 'x');
	`); err != nil {
		b.Fatal(err)
	}
	q := `select b from t where a = 1`
	b.Run("cold", func(b *testing.B) {
		e.EnablePlanCache(false)
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e.EnablePlanCache(true)
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
