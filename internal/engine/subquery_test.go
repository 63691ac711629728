package engine

import (
	"fmt"
	"strings"
	"testing"
)

func subqueryEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if err := e.ExecScript(subqueryFixture); err != nil {
		t.Fatal(err)
	}
	return e
}

const subqueryFixture = `
	create table c (id bigint primary key, name varchar not null, tier bigint);
	create table o (id bigint primary key, cid bigint, total bigint);
	insert into c values (1,'a',1), (2,'b',2), (3,'c',1), (4,'d',3);
	insert into o values (10,1,100), (11,1,50), (12,2,75), (13,null,20);`

func names(t *testing.T, e *Engine, q string) string {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].Str())
	}
	return strings.Join(out, ",")
}

func TestExistsCorrelated(t *testing.T) {
	e := subqueryEngine(t)
	got := names(t, e, `select name from c where exists (select 1 from o where o.cid = c.id) order by name`)
	if got != "a,b" {
		t.Fatalf("EXISTS = %q, want a,b", got)
	}
	got = names(t, e, `select name from c where not exists (select 1 from o where o.cid = c.id) order by name`)
	if got != "c,d" {
		t.Fatalf("NOT EXISTS = %q", got)
	}
}

func TestExistsWithExtraSubqueryFilter(t *testing.T) {
	e := subqueryEngine(t)
	got := names(t, e, `select name from c where exists (select 1 from o where o.cid = c.id and o.total > 80) order by name`)
	if got != "a" {
		t.Fatalf("filtered EXISTS = %q, want a", got)
	}
	// Combined with a plain predicate.
	got = names(t, e, `select name from c where tier = 1 and exists (select 1 from o where o.cid = c.id)`)
	if got != "a" {
		t.Fatalf("EXISTS + plain = %q", got)
	}
}

func TestInSubquery(t *testing.T) {
	e := subqueryEngine(t)
	got := names(t, e, `select name from c where id in (select cid from o where total >= 50) order by name`)
	if got != "a,b" {
		t.Fatalf("IN = %q", got)
	}
	// Uncorrelated EXISTS: non-empty subquery keeps everything.
	got = names(t, e, `select name from c where exists (select 1 from o) order by name`)
	if got != "a,b,c,d" {
		t.Fatalf("uncorrelated EXISTS = %q", got)
	}
}

func TestNotInNullSemantics(t *testing.T) {
	e := subqueryEngine(t)
	// The subquery result contains a NULL (o.cid of order 13):
	// NOT IN must return NO rows — the infamous three-valued trap.
	got := names(t, e, `select name from c where id not in (select cid from o)`)
	if got != "" {
		t.Fatalf("NOT IN with NULLs = %q, want empty", got)
	}
	// Excluding NULLs restores the intuitive behavior.
	got = names(t, e, `select name from c where id not in (select cid from o where cid is not null) order by name`)
	if got != "c,d" {
		t.Fatalf("NOT IN sans NULLs = %q", got)
	}
	// NOT IN over an empty subquery keeps all rows.
	got = names(t, e, `select name from c where id not in (select cid from o where total > 99999) order by name`)
	if got != "a,b,c,d" {
		t.Fatalf("NOT IN empty = %q", got)
	}
}

// TestNotInCorrelatedNullSemantics: a correlated NOT IN decides its
// empty-set and NULL cases per correlation group C (the subquery rows
// whose correlation is TRUE for the outer row), never across the whole
// subquery: a row is kept iff C is empty, or x is non-NULL and no row of
// C has y = x or a NULL y. Each statement runs on both executors, with
// the plan cache off and on (twice, so the second run instantiates the
// cached template).
func TestNotInCorrelatedNullSemantics(t *testing.T) {
	// o.cid NULL (rows 13, 16) puts a row in no group; row 14's NULL total
	// sits in c.id=1's equi group but in no non-equi (o.cid > c.id) group.
	extra := `
		insert into c values (5,'e',null), (6,'f',null);
		insert into o values (14,1,null), (15,6,10), (16,null,null);`
	cases := []struct {
		name, fixture, q, want string
	}{
		{"equi-correlated", "",
			`select name from c where tier not in (select total from o where o.cid = c.id) order by name`,
			"a,b,c,d"},
		// a's group holds a NULL total; e has a NULL tier over an empty
		// group, f a NULL tier over a non-empty one.
		{"null-in-group", extra,
			`select name from c where tier not in (select total from o where o.cid = c.id) order by name`,
			"b,c,d,e"},
		// A NULL outer correlation key (e, f) leaves C empty; a constant x.
		{"null-probe-correlation", extra,
			`select name from c where 75 not in (select total from o where o.cid = c.tier) order by name`,
			"d,e,f"},
		{"non-equi-correlation", extra,
			`select name from c where tier not in (select total from o where o.cid > c.id) order by name`,
			"a,b,c,d,f"},
	}
	for _, vec := range []bool{true, false} {
		for _, cache := range []bool{false, true} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/vector=%v/cache=%v", tc.name, vec, cache), func(t *testing.T) {
					e := New()
					e.rowReference = !vec
					defer e.Close()
					if err := e.ExecScript(subqueryFixture + tc.fixture); err != nil {
						t.Fatal(err)
					}
					e.EnablePlanCache(cache)
					for run := 0; run < 2; run++ {
						if got := names(t, e, tc.q); got != tc.want {
							t.Fatalf("run %d: %q = %q, want %q", run, tc.q, got, tc.want)
						}
					}
					if hits, _ := e.PlanCacheStats(); cache && hits == 0 {
						t.Fatalf("plan cache never hit")
					}
				})
			}
		}
	}
}

func TestSubqueryPlanShapes(t *testing.T) {
	e := subqueryEngine(t)
	ex, err := e.Explain("", `select name from c where exists (select 1 from o where o.cid = c.id)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "SemiJoin") {
		t.Fatalf("expected SemiJoin:\n%s", ex)
	}
	ex, err = e.Explain("", `select name from c where id not in (select cid from o)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "AntiJoin") {
		t.Fatalf("expected AntiJoin:\n%s", ex)
	}
}

func TestSubqueryErrors(t *testing.T) {
	e := subqueryEngine(t)
	cases := []string{
		// EXISTS nested under OR is unsupported.
		`select name from c where tier = 1 or exists (select 1 from o where o.cid = c.id)`,
		// IN subquery with two columns.
		`select name from c where id in (select id, cid from o)`,
		// Correlation in the select list of the subquery.
		`select name from c where exists (select c.id from o)`,
		// EXISTS in the select list.
		`select exists (select 1 from o) from c`,
	}
	for _, q := range cases {
		if _, err := e.Query(q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestSubqueryInsideViewOptimizes(t *testing.T) {
	e := subqueryEngine(t)
	mustExec(t, e, `
		create view active_customers as
		select id, name, tier from c
		where exists (select 1 from o where o.cid = c.id)`)
	res, err := e.Query(`select name from active_customers order by name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Semi joins preserve keys: a distinct over the view's key column is
	// eliminated.
	st, err := e.PlanStats("", `select distinct id from active_customers`, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Distincts != 0 {
		t.Fatalf("distinct over semi-joined key not eliminated: %s", st)
	}
	// And an unused augmentation join ABOVE a semi join is still removed.
	mustExec(t, e, `
		create view wide_active as
		select a.id, a.name, x.total
		from active_customers a
		left outer join o x on a.id = x.id`)
	st, err = e.PlanStats("", `select name from wide_active`, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Joins != 1 { // the semi join stays, the AJ goes
		ex, _ := e.Explain("", `select name from wide_active`)
		t.Fatalf("joins = %d, want 1\n%s", st.Joins, ex)
	}
}
