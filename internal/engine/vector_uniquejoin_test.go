package engine_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/storage"
)

// uniqEngine loads a probe table pr (3 000 rows: 2 000 merged into the
// main fragment, 1 000 left in the delta) and two build tables: bu, whose
// keys k and s are unique (an n:1 association), and bd, bu plus one row
// repeating bu's key 5. Probe keys are NULL every 13th row and run past
// the build's 300 keys, so some probe codes have no build row. The main
// fragment's s values are k100–k399 and the delta's k000–k399, so a
// delta merge appends strings to the main dictionary and moves every
// delta row to a new code. The filter column cat is NULL on every 7th
// build row.
func uniqEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New()
	nul := func(i, every int, v string) string {
		if i%every == 0 {
			return "null"
		}
		return v
	}
	prRow := func(i int) string {
		s := 100 + i*11%300
		if i >= 2000 {
			s = i * 11 % 400
		}
		return fmt.Sprintf("%d, %s, %s, %d", i, nul(i, 13, fmt.Sprint(i*7%400)),
			nul(i+5, 13, fmt.Sprintf("'k%03d'", s)), i%10)
	}
	buRow := func(i int) string {
		return fmt.Sprintf("%d, 'k%03d', %s, %d.%02d", i, i,
			nul(i, 7, fmt.Sprintf("'%c'", 'A'+i%4)), i, i%100)
	}
	script := "create table pr (id bigint primary key, k bigint, s varchar, v bigint);\n" +
		"create table bu (k bigint primary key, s varchar, cat varchar, amt decimal(10,2));\n" +
		"create table bd (id bigint primary key, k bigint, s varchar, cat varchar, amt decimal(10,2));\n" +
		insertScript("pr", 2000, prRow) + "\n" + insertScript("bu", 300, buRow) + "\n" +
		insertScript("bd", 301, func(i int) string {
			if i == 300 {
				return "300, 5, 'k005', 'A', 0.50"
			}
			return fmt.Sprint(i) + ", " + buRow(i)
		})
	if err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	if err := e.ExecScript(insertScript("pr", 1000, func(i int) string { return prRow(i + 2000) })); err != nil {
		t.Fatal(err)
	}
	return e
}

// uniqJoinBattery covers the join shapes of the unique-build probe: inner
// and LEFT OUTER over int and string keys; folded filters (DAC-shaped or
// not) whose NULL extension passes or fails — planned without rewrites
// where the optimizer would otherwise push the filter into the build or
// turn the outer join inner; a union whose first branch hands the probe
// a constant, computed string key; the fan-out build bd; and a LEFT OUTER
// join that builds its preserved left side.
func uniqJoinBattery() []struct {
	name, sql string
	prof      core.Profile
} {
	type q = struct {
		name, sql string
		prof      core.Profile
	}
	return []q{
		{"inner-int", `select pr.id, bu.s, bu.amt from pr join bu on pr.k = bu.k`, core.ProfileHANA},
		{"inner-str", `select pr.id, bu.k, bu.cat from pr join bu on pr.s = bu.s`, core.ProfileHANA},
		{"outer-int", `select pr.id, bu.s, bu.cat from pr left outer join bu on pr.k = bu.k`, core.ProfileHANA},
		{"outer-str", `select pr.id, bu.k, bu.amt from pr left outer join bu on pr.s = bu.s`, core.ProfileHANA},
		{"dac-ext-passes", `select pr.id, bu.k from pr left outer join bu on pr.s = bu.s
			where bu.cat in ('A', 'B') or bu.cat is null`, core.ProfileHANA},
		{"dac-ext-fails", `select pr.id, bu.s from pr left outer join bu on pr.k = bu.k
			where bu.cat in ('A', 'C')`, core.ProfileNone},
		{"inner-folded", `select pr.id, bu.amt from pr join bu on pr.s = bu.s where bu.cat <> 'B'`, core.ProfileNone},
		{"union-const-key", `select u.id, bu.k, bu.cat from (select id, 'k001' s from pr union all
			select id, s from pr) u left outer join bu on u.s = bu.s where bu.cat <> 'D' or bu.cat is null`, core.ProfileNone},
		{"fanout-int", `select pr.id, bd.id, bd.cat from pr left outer join bd on pr.k = bd.k
			where bd.cat in ('A', 'B') or bd.cat is null`, core.ProfileHANA},
		{"fanout-str", `select pr.id, bd.id from pr join bd on pr.s = bd.s where bd.cat <> 'C'`, core.ProfileNone},
		{"build-left-outer", `select bu.k, pr.id, pr.v from bu left outer join pr on bu.s = pr.s`, core.ProfileHANA},
		{"chain-count", `select count(*) from pr left outer join bu on pr.s = bu.s left outer join bd on pr.k = bd.k
			where (bu.cat in ('A', 'B') or bu.cat is null) and (bd.cat <> 'C' or bd.cat is null)`, core.ProfileHANA},
	}
}

// analyzeCountsRE picks the figures EXPLAIN ANALYZE must reproduce at
// every batch size: each operator's rows, each join's build rows and
// its folded filter's pass count.
var analyzeCountsRE = regexp.MustCompile(`\brows=\d+|build_rows=\d+|build_filter=\d+/\d+`)

// analyzeCounts runs EXPLAIN ANALYZE of sql under o and p and returns its
// counts in plan order, with the build_filter= figures apart.
func analyzeCounts(t *testing.T, e *engine.Engine, sql string, o engine.Options, p core.Profile) (counts, filters []string) {
	t.Helper()
	savedOpts, savedProf := e.Options(), e.Profile()
	e.SetOptions(o)
	e.SetProfile(p)
	defer func() {
		e.SetOptions(savedOpts)
		e.SetProfile(savedProf)
	}()
	out, err := e.ExplainAnalyze("", sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	for _, m := range analyzeCountsRE.FindAllString(out, -1) {
		if strings.HasPrefix(m, "build_filter=") {
			filters = append(filters, m)
		} else {
			counts = append(counts, m)
		}
	}
	return counts, filters
}

// TestVecJoinUniqueBuild diffs the unique-build battery against the row
// executor at batch sizes 1, 7 and 1024: rows in order, EXPLAIN ANALYZE
// rows= and build_rows= per operator, and build_filter= equal at every
// batch size (the row executor has no folded filter). A second leg
// merges the probe table's delta once the probe has read delta rows, on
// a fresh fixture per statement, so the probe key's dictionary view
// changes mid-probe and every per-code outcome must be resolved again.
func TestVecJoinUniqueBuild(t *testing.T) {
	e := uniqEngine(t)
	sizes := []int{1, 7, 1024}
	row := engine.Options{DisableVectorize: true}
	folded := 0
	for _, q := range uniqJoinBattery() {
		ref := runMeta(t, e, q.sql, row, q.prof)
		refCounts, _ := analyzeCounts(t, e, q.sql, row, q.prof)
		var refFilters []string
		for _, size := range sizes {
			o := engine.Options{BatchSize: size}
			label := fmt.Sprintf("%s/batch=%d", q.name, size)
			requireSameRows(t, label, q.sql, ref, runMeta(t, e, q.sql, o, q.prof))
			counts, filters := analyzeCounts(t, e, q.sql, o, q.prof)
			if strings.Join(counts, " ") != strings.Join(refCounts, " ") {
				t.Errorf("%s: EXPLAIN ANALYZE counts\n  got  %v\n  want %v", label, counts, refCounts)
			}
			if refFilters == nil {
				refFilters = filters
			} else if strings.Join(filters, " ") != strings.Join(refFilters, " ") {
				t.Errorf("%s: %v, want %v as at batch size %d", label, filters, refFilters, sizes[0])
			}
		}
		folded += len(refFilters)
	}
	if folded < 6 {
		t.Errorf("%d joins folded a filter into their build, want at least 6", folded)
	}

	for _, q := range uniqJoinBattery() {
		ref := runMeta(t, e, q.sql, row, q.prof)
		for _, size := range sizes {
			fresh := uniqEngine(t)
			pr, _ := fresh.DB().Table("pr")
			// Batch 2000/size+1 is the first to read a delta row (the
			// delta starts at position 2000): merge before the next one,
			// so codes memoized under the old view are met again.
			batches, merged := 0, false
			fresh.DB().SetTestHooks(&storage.TestHooks{BeforeScanBatch: func(table string) {
				if table != "pr" {
					return
				}
				if batches++; batches == 2000/size+2 {
					merged = pr.MergeDelta() == nil
				}
			}})
			label := fmt.Sprintf("%s/merge-mid-probe/batch=%d", q.name, size)
			requireSameRows(t, label, q.sql, ref, runMeta(t, fresh, q.sql, engine.Options{BatchSize: size}, q.prof))
			if !merged {
				t.Errorf("%s: the probe table's delta was not merged mid-probe", label)
			}
		}
	}
}
