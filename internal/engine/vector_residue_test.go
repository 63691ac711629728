package engine_test

import (
	"sort"
	"strings"
	"testing"

	"vdm/internal/engine"
)

// residueEngine holds two small tables with NULLs in every column the
// battery keys, groups, divides or compares on, and a third, empty one.
// Its delta is populated: rows inserted, deleted and updated after a
// merge.
func residueEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New()
	if err := e.ExecScript(`
		create table ra (id bigint primary key, g bigint, h bigint, x bigint, v decimal(10,2), f double, s varchar);
		create table rb (id bigint primary key, g bigint, h bigint, y bigint, w decimal(10,2), s varchar);
		create table rz (id bigint primary key, y bigint);
		insert into ra values
			(1, 1, 1, 10, 1.50, 0.5, 'a'), (2, 1, 2, null, 2.50, 1.5, 'b'), (3, 2, 1, 20, 0.00, 2.5, null),
			(4, 2, 2, 30, null, null, 'd'), (5, null, 1, 40, 3.25, 3.5, 'e'), (6, 3, null, 0, 4.00, 0.0, '7'),
			(7, 4, 4, 50, 5.00, 5.5, 'g');
		insert into rb values
			(100, 1, 1, 10, 1.00, 'a'), (101, 1, 1, null, 2.00, 'x'), (102, 2, 1, 25, 0.50, 'c'),
			(103, 2, 2, 30, 3.00, null), (104, null, 1, 40, 4.00, 'e'), (105, 3, 3, 0, 0.00, '7'),
			(106, 2, 1, 20, 9.00, 'z');`); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript(`
		insert into ra values (8, 1, 1, 0, 6.00, 6.5, 'h'), (9, 5, 5, null, null, null, null);
		insert into rb values (107, 4, 4, 60, 7.00, 'g'), (108, 5, 5, 0, null, 'q');
		delete from rb where id = 105;
		update ra set x = 35 where id = 4;`); err != nil {
		t.Fatal(err)
	}
	return e
}

// residueBattery is every plan shape the batch compiler once declined
// to the row iterators, each as a statement over residueEngine. Several
// fail at run time; the battery compares their error text too.
func residueBattery() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		// Semi and anti joins; NOT IN with a NULL x, a NULL y, an empty
		// group, a multi-column and a non-equi correlation.
		{"semi", `select id from ra where exists (select 1 from rb where rb.g = ra.g)`},
		{"semi-in", `select id, x from ra where x in (select y from rb)`},
		{"anti", `select id from ra where not exists (select 1 from rb where rb.g = ra.g)`},
		{"anti-uncorrelated", `select id from ra where not exists (select 1 from rz)`},
		{"not-in-null-y", `select id from ra where x not in (select y from rb)`},
		{"not-in-null-x", `select id from ra where x not in (select y from rb where y is not null)`},
		{"not-in-empty", `select id from ra where x not in (select y from rz)`},
		{"not-in-empty-group", `select id from ra where x not in (select y from rb where rb.g = ra.g)`},
		{"not-in-multi-column", `select id from ra where x not in (select y from rb where rb.g = ra.g and rb.h = ra.h)`},
		{"not-in-non-equi", `select id from ra where x not in (select y from rb where rb.g > ra.g)`},
		// Cross, non-equi and residual inner joins.
		{"cross", `select ra.id, rb.id from ra cross join rb`},
		{"non-equi", `select ra.id, rb.id from ra inner join rb on ra.x < rb.y`},
		{"residual", `select ra.id, rb.id, rb.w from ra inner join rb on ra.g = rb.g and ra.v > rb.w`},
		{"residual-error", `select ra.id, rb.id from ra inner join rb on ra.g = rb.g and rb.w / ra.v > 1`},
		{"residual-error-under-limit", `select ra.id, rb.id from ra inner join rb on ra.g = rb.g and rb.w / ra.v > 1 limit 1`},
		// LEFT OUTER, semi and anti joins with a residual.
		{"left-residual", `select ra.id, rb.id, rb.w from ra left outer join rb on ra.g = rb.g and rb.w < ra.v`},
		{"left-non-equi", `select ra.id, rb.id from ra left outer join rb on ra.x > rb.y`},
		{"semi-residual", `select id from ra where exists (select 1 from rb where rb.g = ra.g and rb.w > ra.v)`},
		{"anti-residual", `select id from ra where not exists (select 1 from rb where rb.g = ra.g and rb.w > ra.v)`},
		{"anti-residual-error", `select id from ra where not exists (select 1 from rb where rb.g = ra.g and rb.w / ra.v > 1)`},
		// DISTINCT aggregates.
		{"distinct-aggs", `select g, count(distinct x), sum(distinct v), avg(distinct f), count(distinct s) from ra group by g`},
		{"distinct-scalar", `select count(distinct h), sum(distinct x), avg(distinct v) from ra`},
		// Division, MOD and TO_DECIMAL, reached and short-circuited.
		{"div", `select id, x / 4, v / 2, v / f from ra`},
		{"div-by-zero", `select id, 100 / x from ra`},
		{"div-under-limit", `select id, 100 / x from ra limit 3`},
		{"div-filter-under-limit", `select id from ra where 100 / x > 3 limit 2`},
		{"div-and", `select id from ra where x <> 0 and 100 / x > 3`},
		{"div-and-reached", `select id from ra where x >= 0 and 100 / x > 3`},
		{"div-or", `select id from ra where x = 0 or 100 / x > 3`},
		{"div-and-value", `select id, x <> 0 and 100 / x > 3, x = 0 or 100 / x > 3 from ra`},
		{"div-and-in-or", `select id from ra where id = 1 or (x <> 0 and 100 / x > 3)`},
		{"div-case", `select id, case when x <> 0 then 100 / x end, case when x = 0 then -1 else mod(100, x) end from ra`},
		{"case-mixed-div", `select id, case when x = 0 then 0 else 100 / x end from ra`},
		{"case-mixed-null", `select id, case when x = 0 then null else 100 / x end from ra`},
		{"case-int-decimal", `select id, case when x > 20 then 1 else 0.5 end from ra`},
		{"case-mixed-agg-key", `select case when x > 20 then 1 else 0.5 end k, count(*) from ra group by case when x > 20 then 1 else 0.5 end order by k`},
		{"coalesce-mixed", `select id, coalesce(x, 0.5), ifnull(v, 1), coalesce(v, f, x) from ra`},
		{"coalesce-mixed-join", `select ra.id, rb.id from ra inner join rb on coalesce(ra.x, 0.5) = coalesce(rb.w, 0)`},
		{"case-no-common-type", `select id, case when x > 20 then 'big' else x end from ra`},
		{"mod", `select id, mod(x, 7), mod(x, h) from ra`},
		{"mod-by-zero", `select id, mod(10, x) from ra`},
		{"mod-case", `select id, case when x <> 0 then mod(100, x) else -1 end from ra`},
		{"to-decimal", `select id, to_decimal(f, 1), to_decimal(x), to_decimal(v, 3) from ra`},
		{"to-decimal-or", `select id from ra where s is null or to_decimal(x, 1) > 20.0`},
		// Mixed-type comparisons and IN lists.
		{"cmp-mixed", `select id from ra where s = 7`},
		{"cmp-mixed-short-circuit", `select id from ra where s is null and s = 7`},
		{"in-exprs", `select id from ra where x in (g * 10, h + 9)`},
		{"in-mixed", `select id from ra where s in ('a', 7)`},
		// Aggregates over expressions, VALUES and coerced UNION ALL.
		{"agg-exprs", `select g, sum(x * 2), max(v + 1), count(x / 2), avg(x / 4) from ra group by g`},
		{"agg-div-error", `select g, sum(10 / x) from ra group by g`},
		{"values", `select 1 a, 'x' b, 2.50 c`},
		{"values-empty", `select id from ra where 1 = 0`},
		{"union-coerced", `select x from ra union all select v from ra union all select f from ra union all select null from rb`},
		{"union-null-first", `select null n from rz union all select s from ra`},
	}
}

// residuePinned are battery outcomes fixed by hand, as sorted rows: an
// anti join keeps a probe row with a NULL key; NOT IN drops a row whose x
// is NULL or whose group holds a NULL y, and keeps one whose group is
// empty; AND and OR do not evaluate a division their left side decides;
// CASE arms with no common type are a bind error.
// The batch executor runs these joins through the row join, so only a
// fixed answer catches a fault the two share.
var residuePinned = map[string]string{
	"anti":                "BIGINT:5\nBIGINT:6\n",
	"not-in-null-y":       "",
	"not-in-null-x":       "BIGINT:4\nBIGINT:7\n",
	"not-in-empty-group":  "BIGINT:4\nBIGINT:5\nBIGINT:6\nBIGINT:7\n",
	"div-and":             "BIGINT:1\nBIGINT:3\n",
	"div-or":              "BIGINT:1\nBIGINT:3\nBIGINT:6\nBIGINT:8\n",
	"case-no-common-type": "error: bind: CASE arms have no common type: VARCHAR and BIGINT",
}

// sortedLines returns s's lines sorted, each ending in a newline.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// residueOutcome runs a statement and renders its rows with each value's
// type, or its error.
func residueOutcome(e *engine.Engine, sqlText string) string {
	res, err := e.Query(sqlText)
	if err != nil {
		return "error: " + err.Error()
	}
	return typedRows(res)
}

// TestVecResidueBattery diffs every former decline shape against the row
// reference at batch sizes 1, 7 and 1024, before and after a delta
// merge: rows, order, each value's type and printed form, and the error
// text of the statements that fail. The reference's outcome must also
// match residuePinned where that has one. The battery must hold failing
// and succeeding statements both.
func TestVecResidueBattery(t *testing.T) {
	e := residueEngine(t)
	failing := 0
	for _, state := range []string{"main+delta", "merged"} {
		if state == "merged" {
			if err := e.MergeAllDeltas(); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range residueBattery() {
			engine.SetRowReference(e, true)
			want := residueOutcome(e, q.sql)
			engine.SetRowReference(e, false)
			if len(want) > 6 && want[:6] == "error:" {
				failing++
			}
			if pin, ok := residuePinned[q.name]; ok && sortedLines(want) != pin {
				t.Errorf("%s/%s: %q\n reference:\n%s\nwant (sorted):\n%s", state, q.name, q.sql, want, pin)
			}
			for _, size := range []int{1, 7, 1024} {
				e.SetOptions(engine.Options{BatchSize: size})
				if got := residueOutcome(e, q.sql); got != want {
					t.Errorf("%s/%s/batch=%d: %q\n got:\n%s\nwant:\n%s", state, q.name, size, q.sql, got, want)
				}
			}
			e.SetOptions(engine.Options{})
		}
	}
	if failing == 0 || failing == 2*len(residueBattery()) {
		t.Errorf("%d of %d outcomes are errors, want some of each", failing, 2*len(residueBattery()))
	}
}

// TestUnionAllColumnsTakeCommonType pins UNION ALL typing: each column
// takes its branches' common type under the arithmetic promotion rules
// (a NULL-typed branch takes the other's), every value of the column has
// that type on both executors, and branches with no common type are a
// bind error.
func TestUnionAllColumnsTakeCommonType(t *testing.T) {
	e := engine.New()
	if err := e.ExecScript(`
		create table a (k bigint, d decimal(10,2), f double, s varchar);
		insert into a values (1, 2.50, 0.5, 'p'), (2, 3.25, 1.5, null);`); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, sql, want string }{
		{"int-decimal", `select k x from a union all select d from a`,
			"DECIMAL:1\nDECIMAL:2\nDECIMAL:2.50\nDECIMAL:3.25\n"},
		{"decimal-int", `select d x from a union all select k from a`,
			"DECIMAL:2.50\nDECIMAL:3.25\nDECIMAL:1\nDECIMAL:2\n"},
		{"int-float", `select k x from a union all select f from a`,
			"DOUBLE:1\nDOUBLE:2\nDOUBLE:0.5\nDOUBLE:1.5\n"},
		{"decimal-float", `select d x from a union all select f from a`,
			"DOUBLE:2.5\nDOUBLE:3.25\nDOUBLE:0.5\nDOUBLE:1.5\n"},
		{"int-null", `select k x from a union all select null from a`,
			"BIGINT:1\nBIGINT:2\nBIGINT:NULL\nBIGINT:NULL\n"},
		{"null-string", `select null x from a union all select s from a`,
			"VARCHAR:NULL\nVARCHAR:NULL\nVARCHAR:p\nVARCHAR:NULL\n"},
		{"string-string", `select s x from a union all select s from a`,
			"VARCHAR:p\nVARCHAR:NULL\nVARCHAR:p\nVARCHAR:NULL\n"},
		{"int-string", `select k x from a union all select s from a`,
			"error: bind: UNION ALL column 1 has no common type: BIGINT and VARCHAR"},
	}
	for _, c := range cases {
		for _, row := range []bool{true, false} {
			engine.SetRowReference(e, row)
			if got := residueOutcome(e, c.sql); got != c.want {
				t.Errorf("%s (row reference=%v): %q\n got:\n%s\nwant:\n%s", c.name, row, c.sql, got, c.want)
			}
		}
		engine.SetRowReference(e, false)
	}
}
