package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vdm/internal/catalog"
	"vdm/internal/engine"
	"vdm/internal/exec"
	"vdm/internal/sql"
)

// The build-reuse battery. A cached plan's executions share its hash
// builds over master data while the build tables do not change; every
// case below runs a statement with reuse on and again with it off and
// requires the same rows, and counts the builds the first run reused, so
// that a case proves reuse happened where it may and not where it must
// not.

// reuseEngine returns an engine with the plan cache on and the VDM's
// shape in small: a fact table item joined n:1 to the master-data tables
// sup and cust by the view ItemView, whose DAC policy on the supplier
// region folds into the sup build. Some items name a supplier or a
// customer that does not exist, so LEFT OUTER extension is exercised.
func reuseEngine(t *testing.T, items, sups int) *engine.Engine {
	t.Helper()
	e := engine.New()
	e.EnablePlanCache(true)
	var b strings.Builder
	b.WriteString(`create table item (id bigint primary key, sup bigint, cust varchar, amt decimal(12,2), yr bigint);
		create table sup (id bigint primary key, name varchar, region varchar);
		create table cust (code varchar primary key, name varchar, country varchar);
		create view ItemView as select i.id, i.amt, i.yr, s.name sname, s.region, c.name cname, c.country
		from item i left outer many to one join sup s on i.sup = s.id
		left outer many to one join cust c on i.cust = c.code;
		insert into cust values ('C0', 'Acme', 'DE'), ('C1', 'Bolt', 'FR'), ('C2', 'Crane', 'US'),
		('C3', 'Delta', 'DE'), ('C4', 'Echo', null), ('C5', 'Fjord', 'FR');`)
	regions := []string{"'EU'", "'US'", "'APJ'", "null"}
	for lo := 1; lo <= sups; lo += 500 {
		b.WriteString("insert into sup values ")
		for i := lo; i < min(lo+500, sups+1); i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 'S%d', %s)", i, i, regions[i%len(regions)])
		}
		b.WriteString(";\n")
	}
	for lo := 1; lo <= items; lo += 500 {
		b.WriteString("insert into item values ")
		for i := lo; i < min(lo+500, items+1); i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, 'C%d', %d.%02d, %d)", i, i%(sups+3), i%8, i*7%1000, i%100, 2018+i%6)
		}
		b.WriteString(";\n")
	}
	if err := e.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	f, err := sql.ParseExpr("region in ('EU', 'US') or region is null")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddDAC("ItemView", catalog.DACPolicy{Name: "Z_REGION", Filter: f}); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	return e
}

// reuseShapes are the battery's statement shapes, each with %v for its
// literal: one on the probe side (yr, id), two on the build side (a
// filter on cust's country that the optimizer may push into the build,
// and one on the supplier region that folds into the sup build).
var reuseShapes = []struct {
	name, sql string
	lits      []any
	buildLit  bool // the literal sits on a build side
}{
	{"count", `select count(*) from ItemView where yr > %v`, []any{2000, 2019}, false},
	{"group", `select region, sum(amt) total, count(*) n from ItemView where yr >= %v group by region order by region`, []any{2018, 2021}, false},
	{"topk", `select id, amt, sname, cname from ItemView where id > %v order by amt desc, id limit 7`, []any{0, 40}, false},
	{"build-lit", `select id, sname, cname from ItemView where country = '%v' order by id`, []any{"DE", "FR"}, true},
	{"folded-lit", `select id, sname, region from ItemView where (region = '%v' or region is null) and yr > 2000 order by id`, []any{"EU", "US"}, true},
}

// buildCounts returns the engine's exec.builds_made and
// exec.builds_reused.
func buildCounts(e *engine.Engine) (made, reused int64) {
	for _, m := range e.Metrics() {
		switch m.Name {
		case "exec.builds_made":
			made = m.Value
		case "exec.builds_reused":
			reused = m.Value
		}
	}
	return made, reused
}

// sameRun runs q through run with build reuse on and then off, fails the
// test unless both return the same rows or the same error, and returns
// the builds the run with reuse on made and reused.
func sameRun(t *testing.T, e *engine.Engine, label, q string, run func() (*engine.Result, error)) (made, reused int64) {
	t.Helper()
	m0, r0 := buildCounts(e)
	got, gotErr := run()
	m1, r1 := buildCounts(e)
	engine.SetBuildReuse(e, false)
	want, wantErr := run()
	engine.SetBuildReuse(e, true)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: %q: error %v with reuse, %v without", label, q, gotErr, wantErr)
	}
	if gotErr == nil {
		requireSameRows(t, label, q, want, got)
	}
	return m1 - m0, r1 - r0
}

// same is sameRun of the latest snapshot as the DAC user.
func same(t *testing.T, e *engine.Engine, label, q string) (made, reused int64) {
	t.Helper()
	return sameRun(t, e, label, q, func() (*engine.Result, error) { return e.QueryAs("u", q) })
}

// sameAll runs every shape with every literal through same and returns
// the builds made and reused by the shapes whose literals sit on the
// probe side. (Alternating build-side literals rebuild by design: a slot
// keeps the last build.)
func sameAll(t *testing.T, e *engine.Engine, label string) (made, reused int64) {
	t.Helper()
	for _, s := range reuseShapes {
		for _, lit := range s.lits {
			m, r := same(t, e, label+"/"+s.name, fmt.Sprintf(s.sql, lit))
			if !s.buildLit {
				made, reused = made+m, reused+r
			}
		}
	}
	return made, reused
}

// TestBuildReuseCommits interleaves commits to the build tables (and to
// the probe table) with executions of the cached shapes: inserts,
// deletes, and updates of join keys and of the DAC column. Every result
// must equal the result without reuse; a commit to a build table must
// make the next execution rebuild; with no commit, the second pass over
// the shapes reuses every build.
func TestBuildReuseCommits(t *testing.T) {
	e := reuseEngine(t, 400, 20)
	sameAll(t, e, "warm")
	if made, reused := sameAll(t, e, "steady"); made != 0 || reused == 0 {
		t.Fatalf("steady pass made %d builds and reused %d, want 0 made", made, reused)
	}
	commits := []struct{ name, stmt string }{
		{"insert-sup", `insert into sup values (21, 'S21', 'EU'), (22, 'S22', 'APJ')`},
		{"delete-sup", `delete from sup where id = 5`},
		{"update-sup-key", `update sup set id = 23 where id = 6`},
		{"update-sup-dac", `update sup set region = 'APJ' where region = 'EU' and id < 10`},
		{"update-sup-name", `update sup set name = 'renamed' where id = 2`},
		{"insert-cust", `insert into cust values ('C6', 'Gale', 'DE'), ('C7', 'Hale', 'US')`},
		{"update-cust-key", `update cust set code = 'C9' where code = 'C1'`},
		{"delete-cust", `delete from cust where country = 'FR'`},
		{"insert-item", `insert into item values (401, 21, 'C6', 5.00, 2023), (402, 1, 'C7', 7.50, 2019)`},
		{"delete-item", `delete from item where id < 30`},
	}
	for _, c := range commits {
		if err := e.Exec(c.stmt); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		made, _ := sameAll(t, e, c.name)
		if made == 0 && !strings.HasSuffix(c.name, "-item") {
			t.Fatalf("%s: a commit to a build table left every build reused", c.name)
		}
		if made, reused := sameAll(t, e, c.name+"/again"); made != 0 || reused == 0 {
			t.Fatalf("%s/again: made %d builds and reused %d, want 0 made", c.name, made, reused)
		}
	}
}

// TestBuildReusePinnedReaders runs QueryPinned readers at snapshots
// before and after a commit to a build table: a reader older than the
// build's table version never reuses it, a build made before the commit
// is never served after it, and a pinned reader at a snapshot the build
// covers reuses it.
func TestBuildReusePinnedReaders(t *testing.T) {
	e := reuseEngine(t, 300, 20)
	ctx := context.Background()
	q := `select id, sname, cname from ItemView where yr > 2000 order by id`
	pinned := func(label string, ts uint64) (int64, int64) {
		return sameRun(t, e, label, q, func() (*engine.Result, error) { return e.QueryPinned(ctx, ts, q) })
	}
	old := e.DB().AcquireRead()
	defer old.Release()
	pinned("old/warm", old.TS())
	if _, reused := pinned("old/again", old.TS()); reused == 0 {
		t.Fatal("a pinned reader at the build's own snapshot did not reuse it")
	}
	for i, stmt := range []string{
		`update sup set name = 'moved' where id = 3`,
		`delete from cust where code = 'C2'`,
		`insert into sup values (30, 'S30', 'EU')`,
	} {
		if err := e.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		cur := e.DB().AcquireRead()
		if made, _ := pinned(fmt.Sprintf("%d/new", i), cur.TS()); made == 0 {
			t.Fatalf("%d: a build made before a commit was served after it", i)
		}
		pinned(fmt.Sprintf("%d/new-again", i), cur.TS())
		if made, _ := pinned(fmt.Sprintf("%d/old", i), old.TS()); made == 0 {
			t.Fatalf("%d: a pinned reader older than the build's table version reused it", i)
		}
		if _, reused := pinned(fmt.Sprintf("%d/new-after-old", i), cur.TS()); reused == 0 {
			t.Fatalf("%d: the newer build did not survive an older reader", i)
		}
		cur.Release()
	}
}

// TestBuildReuseMaintenance merges and vacuums the build and probe
// tables between executions: neither changes a table's rows or version,
// so the builds are still reused, and the rows must not change.
func TestBuildReuseMaintenance(t *testing.T) {
	e := reuseEngine(t, 300, 20)
	mustExecAll(t, e, `delete from sup where id = 4`, `update cust set name = 'Zed' where code = 'C3'`,
		`delete from item where id > 250`, `insert into sup values (40, 'S40', 'US')`)
	sameAll(t, e, "warm")
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"merge", e.MergeAllDeltas},
		{"vacuum", func() error { _, err := e.DB().Vacuum(); return err }},
	} {
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
		if made, reused := sameAll(t, e, step.name); made != 0 || reused == 0 {
			t.Fatalf("%s: made %d builds and reused %d, want 0 made", step.name, made, reused)
		}
	}
}

// TestBuildReuseLiterals instantiates templates with literals that sit on
// the build side — a filter the optimizer pushes into the cust build, a
// conjunct folded into the sup build — and on the probe side. A changed
// build-side literal must rebuild; a changed probe-side literal reuses.
func TestBuildReuseLiterals(t *testing.T) {
	e := reuseEngine(t, 300, 20)
	sameAll(t, e, "warm")
	for _, s := range reuseShapes {
		for i := range 3 {
			m, r := same(t, e, fmt.Sprintf("%s/%d", s.name, i), fmt.Sprintf(s.sql, s.lits[i%2]))
			switch {
			case s.buildLit && m == 0:
				t.Fatalf("%s/%d: a build-side literal changed and no build was made", s.name, i)
			case !s.buildLit && (m != 0 || r == 0):
				t.Fatalf("%s/%d: a probe-side literal changed: made %d builds, reused %d", s.name, i, m, r)
			}
		}
	}
}

// TestBuildReuseReplica reads a cached shape with QueryOnReplica from a
// store whose supplier names differ: it must read that store's rows, not
// the primary's published build.
func TestBuildReuseReplica(t *testing.T) {
	e := reuseEngine(t, 200, 20)
	other := reuseEngine(t, 200, 20)
	mustExecAll(t, other, `update sup set name = 'replica' where id < 8`)
	q := `select id, sname from ItemView where yr > 2000 order by id`
	for range 2 {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	want, err := other.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	lease := other.DB().AcquireRead()
	defer lease.Release()
	_, r0 := buildCounts(e)
	got, err := e.QueryOnReplica(context.Background(), other.DB(), lease.TS(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "replica", q, want, got)
	if _, r1 := buildCounts(e); r1 != r0 {
		t.Fatalf("a replica read reused %d primary builds", r1-r0)
	}
}

// TestBuildReuseMemoryBudget: a reused build still charges its bytes to
// the query's budget, so a budget the build does not fit kills the query
// on the reused build as on a new one, and the build survives the kill.
func TestBuildReuseMemoryBudget(t *testing.T) {
	e := reuseEngine(t, 5000, 3000)
	q := `select count(*), sum(amt) from ItemView where yr > 2000`
	same(t, e, "warm", q)
	if _, reused := same(t, e, "warm/again", q); reused == 0 {
		t.Fatal("the build was not reused")
	}
	opts := e.Options()
	small := opts
	small.MemoryBudget = 48 << 10
	e.SetOptions(small)
	scans := 0
	e.SetExecHooks(&exec.Hooks{OnPoint: func(_ context.Context, p string) error {
		if p == exec.PointScan {
			scans++
		}
		return nil
	}})
	_, err := e.QueryAs("u", q)
	e.SetExecHooks(nil)
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("reused build over budget: err = %v, want ErrMemoryBudget", err)
	}
	if scans != 0 {
		t.Fatalf("the query opened %d scans before the kill: the build was not reused", scans)
	}
	engine.SetBuildReuse(e, false)
	_, err = e.QueryAs("u", q)
	engine.SetBuildReuse(e, true)
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("new build over budget: err = %v, want ErrMemoryBudget", err)
	}
	e.SetOptions(opts)
	if made, reused := same(t, e, "after", q); made != 0 || reused == 0 {
		t.Fatalf("after the kill: made %d builds, reused %d", made, reused)
	}
}

// TestBuildReuseBigThenEmpty reuses a build, rebuilds it over an emptied
// table, reuses the empty build, and rebuilds once rows come back.
func TestBuildReuseBigThenEmpty(t *testing.T) {
	e := reuseEngine(t, 300, 200)
	q := `select id, sname, region from ItemView where yr > 2000 order by id`
	same(t, e, "big", q)
	if _, reused := same(t, e, "big/again", q); reused == 0 {
		t.Fatal("the big build was not reused")
	}
	mustExecAll(t, e, `delete from sup where id > 0`)
	if made, _ := same(t, e, "empty", q); made == 0 {
		t.Fatal("emptying the build table did not rebuild")
	}
	if made, reused := same(t, e, "empty/again", q); made != 0 || reused == 0 {
		t.Fatalf("empty/again: made %d builds, reused %d", made, reused)
	}
	mustExecAll(t, e, `insert into sup values (1, 'back', 'EU'), (2, 'again', 'US')`)
	if made, _ := same(t, e, "refilled", q); made == 0 {
		t.Fatal("refilling the build table did not rebuild")
	}
}

// TestBuildReuseConcurrent runs one variant from two goroutines with
// redrawn probe-side literals while a third commits to the sup build
// table and the probe table now and then: every result must be one of
// the results without reuse at a snapshot the statement could have read.
// The cust build, over a string key whose probe codes go through the key
// index's memos, is reused throughout, so under -race the test also
// proves that executions sharing a build write nothing in common.
func TestBuildReuseConcurrent(t *testing.T) {
	e := reuseEngine(t, 300, 20)
	shape := `select region, country, count(*) n, sum(amt) total from ItemView where yr >= %d
		group by region, country order by region, country`
	lits := []int{2018, 2019, 2020, 2021, 2022, 2023}
	// The writer flips one supplier's region between two values, so
	// every snapshot holds one of two states.
	states := []string{`update sup set region = 'APJ' where id = 1`, `update sup set region = 'EU' where id = 1`}
	want := map[string]bool{}
	engine.SetBuildReuse(e, false)
	for _, st := range append(states, states[0]) {
		for _, lit := range lits {
			res, err := e.QueryAs("u", fmt.Sprintf(shape, lit))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(lit, res.Rows)] = true
		}
		mustExecAll(t, e, st)
	}
	engine.SetBuildReuse(e, true)
	var wg sync.WaitGroup
	errs := make(chan string, 3)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 150 {
				lit := lits[(i*(g+1))%len(lits)]
				res, err := e.QueryAs("u", fmt.Sprintf(shape, lit))
				if err != nil {
					errs <- err.Error()
					return
				}
				if !want[fmt.Sprint(lit, res.Rows)] {
					errs <- fmt.Sprintf("goroutine %d, yr >= %d: rows %v match no snapshot", g, lit, res.Rows)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// A new customer code out of every literal's range moves the
			// probe column's dictionary view, so the probes' memos start
			// new epochs while the cust build is shared.
			err := e.ExecScript(fmt.Sprintf("%s; insert into item values (%d, 1, 'X%d', 1.00, 1990)", states[i%2], 1000+i, i))
			if err != nil {
				errs <- err.Error()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(done)
	writer.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if _, reused := buildCounts(e); reused == 0 {
		t.Fatal("no build was reused")
	}
}

// mustExecAll runs statements on e.
func mustExecAll(t *testing.T, e *engine.Engine, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if err := e.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
}
