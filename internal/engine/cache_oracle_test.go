package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vdm/internal/catalog"
	"vdm/internal/sql"
)

// cacheOracleEngine holds a small schema for the cache oracle: r with a
// region per row, a and bb for subquery-only base tables, and views
// over them. rv carries a DAC policy that reads CURRENT_USER().
func cacheOracleEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e,
		`create table r (id bigint primary key, region varchar, amt bigint)`,
		`insert into r values (1, 'emea', 10), (2, 'apj', 20), (3, 'amer', 30)`,
		`create table a (k bigint, v bigint)`,
		`create table bb (k bigint)`,
		`insert into a values (1, 100), (2, 200), (3, 300)`,
		`insert into bb values (1)`,
		`create view rv as select id, region, amt from r`,
		`create view plain as select id, amt from r`,
		`create view over_plain as select id, amt * 2 a2 from plain`,
		`create view ain as select k, v from a where k in (select k from bb)`,
		`create view aex as select k, v from a where exists (select 1 from bb where bb.k = a.k)`,
	)
	f, err := sql.ParseExpr(`region = 'emea' or current_user() = 'root'`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddDAC("rv", catalog.DACPolicy{Name: "Z_REGION", Filter: f}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCacheOracle checks that a fresh cache serves what its view
// serves: QueryCached(u, q) returns QueryAs(u, q)'s rows, in order, for
// every user. A static cache is fresh after a refresh, a dynamic one
// after the writes.
func TestCacheOracle(t *testing.T) {
	cases := []struct {
		name    string
		views   []string // cached, in order
		dynamic bool
		writes  []string // after caching
		query   string
	}{
		{"dac-current-user", []string{"rv"}, false, nil,
			`select id, region from rv order by id`},
		{"dac-current-user-count", []string{"rv"}, true, []string{`insert into r values (4, 'emea', 40)`},
			`select count(*) from rv`},
		{"dynamic-in-subquery-table", []string{"ain"}, true, []string{`insert into bb values (2)`},
			`select k, v from ain order by k`},
		{"dynamic-exists-subquery-table", []string{"aex"}, true, []string{`insert into bb values (3)`},
			`select k, v from aex order by k`},
		{"cached-view-in-subquery", []string{"plain"}, false, []string{`insert into a values (4, 400)`},
			`select k, v from a where k in (select id from plain where amt > 10) order by k`},
		{"through-uncached-view", []string{"plain"}, true, []string{`update r set amt = 99 where id = 2`},
			`select id, a2 from over_plain order by id`},
		{"self-join", []string{"plain"}, false, []string{`insert into r values (5, 'apj', 50)`},
			`select x.id, y.amt from plain x inner join plain y on x.id = y.id order by x.id`},
		{"dac-beside-plain", []string{"rv", "plain"}, true, []string{`insert into r values (6, 'amer', 60)`},
			`select v.id, p.amt from rv v inner join plain p on v.id = p.id order by v.id`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := cacheOracleEngine(t)
			for _, v := range tc.views {
				if err := e.CreateCachedView(v, tc.dynamic); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, e, tc.writes...)
			if !tc.dynamic {
				for _, v := range tc.views {
					if err := e.RefreshCache(v); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, user := range []string{"", "alice", "root"} {
				want, err := e.QueryAs(user, tc.query)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.QueryCached(user, tc.query)
				if err != nil {
					t.Fatal(err)
				}
				if w, g := rowStrings(want), rowStrings(got); !reflect.DeepEqual(w, g) {
					t.Errorf("user %q: QueryCached = %v, QueryAs = %v", user, g, w)
				}
			}
		})
	}
}

func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestCachedViewRejectsUserDependentBody: a cache materialized for one
// user would serve every user, so a body that resolves CURRENT_USER(),
// itself or through a DAC policy of a view it reads, is rejected; a
// view whose own policy reads it is cached, the policy applied per
// reader.
func TestCachedViewRejectsUserDependentBody(t *testing.T) {
	e := cacheOracleEngine(t)
	mustExec(t, e,
		`create view over_rv as select id, amt from rv`,
		`create view mine as select id from r where region = current_user()`,
	)
	for _, v := range []string{"over_rv", "mine"} {
		err := e.CreateCachedView(v, false)
		if err == nil || !strings.Contains(err.Error(), "CURRENT_USER") {
			t.Errorf("CreateCachedView(%s) = %v, want a CURRENT_USER() error", v, err)
		}
		if _, ok := e.Catalog().Cache(v); ok {
			t.Errorf("%s: rejected cache is registered", v)
		}
	}
	if err := e.CreateCachedView("rv", false); err != nil {
		t.Fatalf("rv's own policy is applied per reader: %v", err)
	}
}

// TestConcurrentDynamicRefresh: readers of one stale dynamic cache
// refresh it once between them, without a data race or a failed read.
// Run with -race.
func TestConcurrentDynamicRefresh(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("dept_totals", true); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		mustExec(t, e, fmt.Sprintf(`insert into emp values (%d, 'x', %d, 1.00)`, 100+round, 1+round%3))
		want := mustQuery(t, e, `select count(*), sum(cnt) from dept_totals`)
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := e.QueryCached("", `select count(*), sum(cnt) from dept_totals`)
				if err == nil && !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
					err = fmt.Errorf("cached %v, live %v", rowStrings(got), rowStrings(want))
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestCacheFollowsItsDefinition: a cache materializes the definition it
// was created from. Once its view is dropped and re-created, or
// replaced, QueryCached reads the live view, and DropCachedView still
// removes the cache.
func TestCacheFollowsItsDefinition(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("dept_totals", false); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		want := mustQuery(t, e, `select * from dept_totals order by dname`)
		got, err := e.QueryCached("", `select * from dept_totals order by dname`)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
			t.Errorf("%s: QueryCached = %v %v, live = %v %v", label, got.Columns, rowStrings(got), want.Columns, rowStrings(want))
		}
	}
	mustExec(t, e, `drop view dept_totals`, `create view dept_totals as select name dname from dept`)
	check("re-created")
	body, err := sql.ParseQuery(`select name dname, region from dept`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().ReplaceView(&catalog.ViewDef{Name: "dept_totals", Query: body}); err != nil {
		t.Fatal(err)
	}
	check("replaced")
	if err := e.DropCachedView("dept_totals"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateCachedView("dept_totals", true); err != nil {
		t.Fatal(err)
	}
	check("cached again")
}
