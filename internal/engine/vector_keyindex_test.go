package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
)

// keyEngine loads two seeded tables whose columns cover every key class
// of the batch key index: kx (240 rows, the probe and grouping side) and
// ky (40 rows, a build side with repeated keys). Both carry BIGINT,
// DATE, BOOLEAN, DECIMAL written at mixed scales (1, 1.0 and 1.00 are
// one key), DOUBLE (0.0 and -0.0 are two) and VARCHAR columns, each
// NULL about one row in eight. The first two thirds of each table are
// merged into the main fragment and the rest stays in the delta, so a
// string column's codes span two dictionaries until the next merge.
func keyEngine(t *testing.T, seed int64) *engine.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals ...string) string {
		if rng.Intn(8) == 0 {
			return "null"
		}
		return vals[rng.Intn(len(vals))]
	}
	ints := []string{"0", "1", "2", "3", "4", "5", "6", "7"}
	bools := []string{"true", "false"}
	decs := []string{"1", "1.0", "1.00", "2.5", "2.50", "-0.10", "-0.1", "0", "0.00"}
	floats := []string{"0.0", "-0.0", "1.5", "2", "-3.25"}
	strs := []string{"'a'", "'b'", "'c'", "'d'", "''"}
	row := func(i int, withT bool) string {
		r := fmt.Sprintf("%d, %s, %s, %s, %s, %s, %s", i, pick(ints...), pick(ints...), pick(bools...),
			pick(decs...), pick(floats...), pick(strs...))
		if withT {
			r += ", " + pick("'x'", "'y'", "'a'")
		}
		return r
	}
	e := engine.New()
	script := "create table kx (id bigint primary key, i bigint, d date, b boolean, m decimal(12,2), f double, s varchar, t varchar);\n" +
		"create table ky (id bigint primary key, i bigint, d date, b boolean, m decimal(12,2), f double, s varchar);\n"
	if err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	load := func(lo, hi int) {
		t.Helper()
		var sb strings.Builder
		for _, tb := range []struct {
			name string
			n    int
		}{{"kx", 240}, {"ky", 40}} {
			from, to := lo*tb.n/3, hi*tb.n/3
			sb.WriteString(insertScript(tb.name, to-from, func(i int) string { return row(from+i, tb.name == "kx") }) + "\n")
		}
		if err := e.ExecScript(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	load(0, 2)
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	load(2, 3)
	return e
}

// keyBattery is the GROUP BY, DISTINCT, inner join and LEFT OUTER join
// shapes the key index serves, one key class or key width at a time.
// u mixes a dictionary-coded string column with computed ones (a
// constant branch and a concatenation) in one union column.
func keyBattery() []struct{ name, sql string } {
	const u = `(select id, s from kx union all select id, 'c' from ky union all select id, s || '' from ky) u`
	var out []struct{ name, sql string }
	add := func(name, sql string) { out = append(out, struct{ name, sql string }{name, sql}) }
	for _, g := range []struct{ name, cols string }{
		{"int", "i"}, {"date", "d"}, {"bool", "b"}, {"decimal", "m"}, {"float", "f"}, {"string", "s"},
		{"int-string", "i, s"}, {"3-col", "s, t, b"}, {"4-col", "s, t, b, m"},
	} {
		add("group-by/"+g.name, "select "+g.cols+", count(*) n, sum(m) total from kx group by "+g.cols)
		add("distinct/"+g.name, "select distinct "+g.cols+" from kx")
	}
	add("group-by/union-strings", "select u.s, count(*) n from "+u+" group by u.s")
	add("distinct/union-strings", "select distinct u.s from "+u)
	for _, kind := range []string{"join", "left outer join"} {
		for _, j := range []struct{ name, on string }{
			{"int-date", "kx.i = ky.d"},
			{"bool", "kx.b = ky.b"},
			{"decimal", "kx.m = ky.m"},
			{"float", "kx.f = ky.f"},
			{"string", "kx.s = ky.s"},
			{"string-int", "kx.s = ky.s and kx.i = ky.i"},
			{"3-col", "kx.s = ky.s and kx.i = ky.i and kx.b = ky.b"},
			{"4-col", "kx.s = ky.s and kx.d = ky.d and kx.b = ky.b and kx.m = ky.m"},
		} {
			add(kind+"/"+j.name, "select kx.id, ky.id, ky.m from kx "+kind+" ky on "+j.on)
		}
		add(kind+"/union-probe", "select u.id, ky.id from "+u+" "+kind+" ky on u.s = ky.s")
		add(kind+"/union-build", "select kx.id, u.id from kx "+kind+" "+u+" on kx.s = u.s")
	}
	return out
}

// keyOps picks the operators the key index serves out of EXPLAIN ANALYZE.
func keyOps(text string) []string {
	var ops []string
	for _, line := range strings.Split(text, "\n") {
		op := strings.TrimSpace(line)
		for _, p := range []string{"GroupBy", "Distinct", "Join", "LeftOuterJoin", "InnerJoin"} {
			if strings.HasPrefix(op, p) {
				ops = append(ops, op)
				break
			}
		}
	}
	return ops
}

// TestVecKeyIndexBattery diffs the key battery against the row executor
// at batch sizes 1, 7 and 1024, with and without a populated delta:
// rows, order and each value's printed form, so a group of 1, 1.0 and
// 1.00 must emit the scale it met first. Every GROUP BY, DISTINCT and
// join of the battery must run in batch mode.
func TestVecKeyIndexBattery(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		e := keyEngine(t, seed)
		for _, state := range []string{"main+delta", "merged"} {
			if state == "merged" {
				if err := e.MergeAllDeltas(); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range keyBattery() {
				label := fmt.Sprintf("seed %d/%s/%s", seed, state, q.name)
				text, err := e.ExplainAnalyze("", q.sql)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ops := keyOps(text)
				if len(ops) == 0 {
					t.Fatalf("%s: no GROUP BY, DISTINCT or join in\n%s", label, text)
				}
				for _, op := range ops {
					if !strings.Contains(op, "mode=vector") {
						t.Errorf("%s: not a batch operator: %s", label, op)
					}
				}
				want := printedRows(runMeta(t, e, q.sql, engine.Options{DisableVectorize: true}, core.ProfileHANA))
				for _, size := range []int{1, 7, 1024} {
					got := printedRows(runMeta(t, e, q.sql, engine.Options{BatchSize: size}, core.ProfileHANA))
					if got != want {
						t.Errorf("%s/batch=%d: %q\n got:\n%s\nwant:\n%s", label, size, q.sql, got, want)
					}
				}
			}
		}
	}
}

// printedRows renders a result one row per line, each value as printed.
func printedRows(res *engine.Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(formatRow(r) + "\n")
	}
	return sb.String()
}

// orderByPages are the LIMIT/OFFSET windows the ORDER BY battery runs
// each sort under: none, a top-k, a page, LIMIT 0, k > n, OFFSET past the
// end, and OFFSET without LIMIT.
var orderByPages = []struct{ name, clause string }{
	{"all", ""}, {"limit", " limit 10"}, {"page", " limit 10 offset 5"}, {"limit-0", " limit 0"},
	{"k>n", " limit 1000"}, {"offset-past-end", " limit 5 offset 1000"},
	{"offset-only", " offset 17"}, {"offset-only-past-end", " offset 1000"},
}

// orderByBattery is the ORDER BY shapes of the sort operator over every
// key class of keyEngine's tables, each under every orderByPages window:
// one key ascending and descending (NULLs first ascending, last
// descending; 1, 1.0 and 1.00 tie and keep arrival order), several keys
// with mixed directions, computed string and decimal keys, and several
// keys over a UNION ALL whose branches tie with each other.
func orderByBattery() []struct{ name, sql string } {
	const u = `(select id, s, m, b from kx union all select id, s, m, b from ky) u`
	var out []struct{ name, sql string }
	for _, k := range []struct{ name, sel, order string }{
		{"int", "i", "i"}, {"date", "d", "d"}, {"bool", "b", "b"}, {"decimal", "m", "m"},
		{"float", "f", "f"}, {"string", "s", "s"},
		{"int-desc", "i", "i desc"}, {"decimal-desc", "m", "m desc"}, {"string-desc", "s", "s desc"},
		{"multi", "s, b, m", "s, b desc, m"},
		{"computed-string", "s || t k", "k desc"},
		{"computed-decimal", "m * 2 k", "k"},
	} {
		for _, p := range orderByPages {
			out = append(out, struct{ name, sql string }{k.name + "/" + p.name,
				"select id, " + k.sel + " from kx order by " + k.order + p.clause})
		}
	}
	for _, p := range orderByPages {
		out = append(out, struct{ name, sql string }{"union-multi/" + p.name,
			"select u.id, u.s, u.m, u.b from " + u + " order by u.s desc, u.b, u.m" + p.clause})
	}
	return out
}

// TestVecOrderByBattery diffs the ORDER BY battery against the row
// executor at batch sizes 1, 7 and 1024, with and without a populated
// delta: rows, order and each value's printed form. Every Sort of the
// battery, bare or under a LIMIT/OFFSET, must run in batch mode with no
// decline label anywhere in the plan.
func TestVecOrderByBattery(t *testing.T) {
	e := keyEngine(t, 1)
	for _, state := range []string{"main+delta", "merged"} {
		if state == "merged" {
			if err := e.MergeAllDeltas(); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range orderByBattery() {
			label := state + "/" + q.name
			text, err := e.ExplainAnalyze("", q.sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if line := planLine(t, text, "Sort"); !strings.Contains(line, "mode=vector") || strings.Contains(text, "vec_fallback") {
				t.Errorf("%s: Sort is not a batch operator:\n%s", label, text)
			}
			want := printedRows(runMeta(t, e, q.sql, engine.Options{DisableVectorize: true}, core.ProfileHANA))
			for _, size := range []int{1, 7, 1024} {
				got := printedRows(runMeta(t, e, q.sql, engine.Options{BatchSize: size}, core.ProfileHANA))
				if got != want {
					t.Errorf("%s/batch=%d: %q\n got:\n%s\nwant:\n%s", label, size, q.sql, got, want)
				}
			}
		}
	}
}

// TestVecOrderByBareSortRunsInBatchMode pins EXPLAIN ANALYZE of a bare
// ORDER BY and an OFFSET-only one over a scan: the Sort and everything
// under it mode=vector, no decline label, and row_ops=0. An ORDER BY on
// a column the query does not select runs the Project that drops the
// hidden key as a batch stage over the sort source.
func TestVecOrderByBareSortRunsInBatchMode(t *testing.T) {
	e := equivEngine(t)
	for _, q := range []struct {
		sql    string
		rowOps int
	}{
		{`select o_orderkey from orders order by o_totalprice desc, o_orderkey`, 0},
		{`select o_orderkey, o_totalprice from orders order by o_totalprice desc, o_orderkey`, 0},
		{`select o_orderkey, o_totalprice from orders order by o_totalprice desc, o_orderkey offset 190`, 0},
	} {
		text, err := e.ExplainAnalyze("", q.sql)
		if err != nil {
			t.Fatal(err)
		}
		root := strings.SplitN(text, "\n", 2)[0]
		if !strings.Contains(root, fmt.Sprintf("row_ops=%d", q.rowOps)) || strings.Contains(text, "vec_fallback") {
			t.Errorf("%q: want row_ops=%d and no vec_fallback:\n%s", q.sql, q.rowOps, text)
		}
		for _, op := range []string{"Sort", "Scan"} {
			if line := planLine(t, text, op); !strings.Contains(line, "mode=vector") {
				t.Errorf("%q: %s is not a batch operator:\n%s", q.sql, op, text)
			}
		}
	}
}

// TestVecOrderByWindowOverflow is the regression test for a LIMIT whose
// window end, offset+count, overflows int64: it keeps every row past the
// offset, in both executors, over a scan and over a UNION ALL.
func TestVecOrderByWindowOverflow(t *testing.T) {
	e := engine.New()
	if err := e.ExecScript(`create table w (id bigint primary key, v bigint);
		insert into w values (1, 30), (2, 10), (3, 20);`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ sql, want string }{
		{`select id from w order by v limit 9223372036854775807 offset 1`, "3\n1\n"},
		{`select id from (select id, v from w union all select id, v from w) u order by v, id
			limit 9223372036854775807 offset 1`, "2\n3\n3\n1\n1\n"},
	} {
		for _, o := range []engine.Options{{DisableVectorize: true}, {}} {
			if got := printedRows(runMeta(t, e, q.sql, o, core.ProfileHANA)); got != q.want {
				t.Errorf("%q (DisableVectorize=%v):\n got:\n%s\nwant:\n%s", q.sql, o.DisableVectorize, got, q.want)
			}
		}
	}
}

// typedRows renders a result one row per line, each value as printed
// with its type, so a value that prints alike under another type (an
// INT 1 and a DECIMAL 1, a NULL of either) differs.
func typedRows(res *engine.Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%s:%s", v.Typ, v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// overSinkBattery puts each operator that can sit above an aggregation,
// an ORDER BY (bare or paged) or a DISTINCT over each such subquery of
// keyEngine's tables. Every subquery exposes k (a key of its own type,
// NULL in some rows), n (a BIGINT) and v (a number), plus the columns
// that cover AVG, MIN/MAX over strings and dates, and multi-column keys.
// The group-by-id subquery has 240 groups, so its output spans batches
// at every batch size below that; the scalar one over no rows emits its
// one row of empty aggregates.
func overSinkBattery() []struct{ name, sql string } {
	sinks := []struct{ name, sql string }{
		{"group-int", "select i k, count(*) n, sum(m) v, avg(f) af, avg(m) am, avg(i) ai, min(s) smin, max(s) smax from kx group by i"},
		{"group-string", "select s k, count(*) n, max(m) v, min(t) tmin, max(d) dmax from kx group by s"},
		{"group-date", "select d k, count(*) n, sum(m) v, min(b) bmin from kx group by d"},
		{"group-bool", "select b k, count(*) n, min(m) v, max(f) fmax from kx group by b"},
		{"group-decimal", "select m k, count(*) n, sum(m) v, avg(m) am from kx group by m"},
		{"group-multi", "select s k, b kb, m km, count(*) n, sum(m) v from kx group by s, b, m"},
		{"group-id", "select id k, count(*) n, sum(m) v, max(s) smax from kx group by id"},
		{"scalar-empty", "select min(s) k, count(*) n, sum(m) v, avg(m) am, max(d) dmax from kx where id < 0"},
		{"scalar", "select min(s) k, count(*) n, sum(m) v, avg(f) af, max(s) smax, min(d) dmin from kx"},
		{"sort", "select s k, id n, m v, b from kx order by s desc, b, id"},
		{"sort-page", "select m k, id n, m v, s from kx order by m desc, id limit 30 offset 5"},
		{"sort-offset", "select d k, id n, f v from kx order by d, id offset 200"},
		{"distinct", "select distinct s k, i n, m v from kx"},
		{"distinct-bool-date", "select distinct b k, d, i n, i v from kx"},
	}
	ops := []struct{ name, sql string }{
		{"project", "select q.*, n * 2 + 1 n2, v + 1 v1 from (%s) q"},
		{"filter", "select q.* from (%s) q where n > 1 or k is null"},
		{"sort", "select q.* from (%s) q order by v desc, n, k"},
		{"sort-page", "select q.* from (%s) q order by n desc, k limit 4 offset 1"},
		{"limit", "select q.* from (%s) q limit 5 offset 2"},
		{"distinct", "select distinct k from (%s) q"},
		{"distinct-n-v", "select distinct n, v from (%s) q"},
		{"join", "select q.k, q.n, ky.id, ky.s from (%s) q join ky on q.n = ky.id"},
		{"left-outer-probe", "select q.k, q.n, ky.id from (%s) q left outer join ky on q.n = ky.id"},
		{"left-outer-build", "select ky.id, q.k, q.v from ky left outer join (%s) q on ky.id = q.n"},
		{"union", "select k, n, v from (%[1]s) q union all select k, n, v from (%[1]s) p"},
		{"aggregate", "select count(*) c, sum(n) sn, min(k) mk, max(v) mv from (%s) q"},
		{"group", "select k, count(*) c, sum(n) sn from (%s) q group by k"},
	}
	var out []struct{ name, sql string }
	for _, s := range sinks {
		for _, o := range ops {
			out = append(out, struct{ name, sql string }{s.name + "/" + o.name, fmt.Sprintf(o.sql, s.sql)})
		}
	}
	// A group source's strings are packed without a dictionary: compare,
	// join and union them against dictionary-coded columns.
	const g = "(select s k, count(*) n from kx group by s) q"
	out = append(out, []struct{ name, sql string }{
		{"group-string/filter-compare", "select q.* from " + g + " where k > 'b' or k = ''"},
		{"group-string/join-on-string", "select q.k, q.n, ky.id from " + g + " join ky on q.k = ky.s"},
		{"group-string/left-outer-build-on-string", "select ky.id, q.k, q.n from ky left outer join " + g + " on ky.s = q.k"},
		{"group-string/union-with-scan", "select k from " + g + " union all select s from ky"},
	}...)
	return out
}

// TestRowLeftOuterNullsAreTyped pins that the row LEFT OUTER join pads an
// unmatched row with NULLs of the right columns' types, as the batch
// join does: kx.i is at most 7, so no ky row above 30 finds a partner.
func TestRowLeftOuterNullsAreTyped(t *testing.T) {
	e := keyEngine(t, 1)
	const q = "select ky.id, kx.i, kx.m from ky left outer join kx on ky.id = kx.i where ky.id > 30"
	got := typedRows(runMeta(t, e, q, engine.Options{DisableVectorize: true}, core.ProfileHANA))
	var want strings.Builder
	for id := 31; id < 40; id++ {
		fmt.Fprintf(&want, "BIGINT:%d | BIGINT:NULL | DECIMAL:NULL\n", id)
	}
	if got != want.String() {
		t.Errorf("row executor:\n got:\n%s\nwant:\n%s", got, want.String())
	}
	if batch := typedRows(runMeta(t, e, q, engine.Options{}, core.ProfileHANA)); batch != got {
		t.Errorf("batch executor:\n got:\n%s\nwant:\n%s", batch, got)
	}
}

// TestVecOverSinksBattery diffs the over-sink battery against the row
// executor at batch sizes 1, 7 and 1024, with and without a populated
// delta: rows, order, and each value's type and printed form. An
// aggregation, ORDER BY and DISTINCT are batch sources, so every
// operator of the battery runs in batch mode, with row_ops=0 and no
// decline label.
func TestVecOverSinksBattery(t *testing.T) {
	e := keyEngine(t, 1)
	for _, state := range []string{"main+delta", "merged"} {
		if state == "merged" {
			if err := e.MergeAllDeltas(); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range overSinkBattery() {
			label := state + "/" + q.name
			requireAllBatch(t, e, "", q.sql)
			want := typedRows(runMeta(t, e, q.sql, engine.Options{DisableVectorize: true}, core.ProfileHANA))
			for _, size := range []int{1, 7, 1024} {
				got := typedRows(runMeta(t, e, q.sql, engine.Options{BatchSize: size}, core.ProfileHANA))
				if got != want {
					t.Errorf("%s/batch=%d: %q\n got:\n%s\nwant:\n%s", label, size, q.sql, got, want)
				}
			}
		}
	}
}
