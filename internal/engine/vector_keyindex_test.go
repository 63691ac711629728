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
