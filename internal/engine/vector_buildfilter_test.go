package engine_test

import (
	"regexp"
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/s4"
)

// buildFilterBattery holds filters that sit above a hash join and read
// its build side: the DAC shape (IN … OR IS NULL) over a LEFT OUTER
// join, filters whose NULL extension fails, NULL filter columns (a CASE
// without ELSE in the build input), 1:n builds where some matches fail,
// NULL build keys (the dates), conjuncts that mix both sides, and joins
// over joins. Costing on and off flips build sides.
func buildFilterBattery() []experiments.NamedQuery {
	return []experiments.NamedQuery{
		{Name: "dac-or-is-null", SQL: `select o_orderkey, c_name from orders left outer join customer on o_custkey = c_custkey
			where c_mktsegment in ('BUILDING', 'MACHINERY') or c_mktsegment is null`},
		{Name: "ext-fails", SQL: `select o_orderkey, c_name from orders left outer join customer on o_custkey = c_custkey
			where c_mktsegment in ('BUILDING', 'MACHINERY')`},
		{Name: "null-filter-col", SQL: `select o_orderkey, seg from orders left outer join
			(select c_custkey, case when c_acctbal > 2000.00 then c_mktsegment end seg from customer) c on o_custkey = c_custkey
			where seg <> 'BUILDING' or seg is null`},
		{Name: "one-to-many-split", SQL: `select c_custkey, o_orderkey, o_orderstatus from customer left outer join orders on c_custkey = o_custkey
			where o_orderstatus = 'O' or o_orderstatus is null`},
		{Name: "null-build-keys", SQL: `select l_orderkey, l_linenumber, o_orderkey from lineitem left outer join orders on l_shipdate = o_orderdate
			where (o_orderpriority is not null and o_orderpriority <> '5-LOW') or o_orderkey is null`},
		{Name: "mixed-sides", SQL: `select o_orderkey, c_custkey from orders left outer join customer on o_custkey = c_custkey
			where (c_acctbal > 1000.00 or c_acctbal is null) and (o_orderkey < 60 or c_custkey is null)`},
		{Name: "dac-chain-count", SQL: `select count(*) from lineitem
			left outer join orders on l_orderkey = o_orderkey
			left outer join customer on o_custkey = c_custkey
			left outer join nation on c_nationkey = n_nationkey
			where (c_mktsegment in ('BUILDING', 'AUTOMOBILE') or c_mktsegment is null)
			and (n_name in ('ALGERIA', 'BRAZIL', 'CHINA') or n_name is null)`},
		{Name: "dac-chain-group", SQL: `select n_name, count(*), sum(o_totalprice) from orders
			left outer join customer on o_custkey = c_custkey
			left outer join nation on c_nationkey = n_nationkey
			where (c_acctbal > 500.00 or c_acctbal is null) and (n_regionkey < 3 or n_regionkey is null)
			group by n_name order by n_name`},
		{Name: "dac-chain-topk", SQL: `select o_orderkey, c_name, n_name from orders
			left outer join customer on o_custkey = c_custkey
			left outer join nation on c_nationkey = n_nationkey
			where (n_name <> 'CHINA' or n_name is null)
			order by o_totalprice desc, o_orderkey limit 12`},
	}
}

// TestVecBuildFilterBattery diffs the build-filter battery against the
// row executor at batch sizes 1, 2 and 1024, with costing on and off,
// before and after a delta merge, and requires that the battery folds
// at least one filter into a join build.
func TestVecBuildFilterBattery(t *testing.T) {
	e := equivEngine(t)
	legs := []engine.Options{{BatchSize: 1}, {BatchSize: 2}, {BatchSize: 1024}}
	folded := 0
	check := func(state string) {
		for _, costing := range []bool{true, false} {
			e.EnableCosting(costing)
			for _, q := range buildFilterBattery() {
				ref := runRef(t, e, q.SQL, core.ProfileHANA)
				for _, o := range legs {
					got := runMeta(t, e, q.SQL, o, core.ProfileHANA)
					requireSameRows(t, state+"/"+q.Name, q.SQL, ref, got)
				}
				out, err := e.ExplainAnalyze("", q.SQL)
				if err != nil {
					t.Fatal(err)
				}
				folded += strings.Count(out, "build_filter=")
			}
		}
		e.EnableCosting(true)
	}
	check("pre-merge")
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	check("post-merge")
	if folded == 0 {
		t.Fatal("no battery statement folded a filter into a join build")
	}
}

var foldedRE = regexp.MustCompile(`folded=(\d+)/(\d+)`)

// TestVecDACFiltersFoldIntoBuild pins the tentpole on the paper's
// statements: on Figure 4 and the five browser statements of a vdm_read
// round, at the benchmark's data size (where costing builds both master
// data joins on their NULL-supplying side) and as the DAC-restricted
// user, each DAC filter over the LFA1 and KNA1 joins folds entirely into
// the join's build (no conjunct left in a stage above the join), and
// each such join reports its build filter.
func TestVecDACFiltersFoldIntoBuild(t *testing.T) {
	e, err := experiments.NewS4Engine(s4.BenchSize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	stmts := []experiments.NamedQuery{{Name: "fig4", SQL: "select count(*) from " + browser}}
	for _, q := range vdmRoundStatements() {
		if strings.Contains(q.SQL, browser) && q.Name != "select_star" {
			stmts = append(stmts, q)
		}
	}
	if len(stmts) != 6 {
		t.Fatalf("%d statements, want Figure 4 and five browser statements", len(stmts))
	}
	for _, q := range stmts {
		out, err := e.ExplainAnalyze("user", q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		dac, joins := 0, strings.Count(out, "build_filter=")
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "Filter (land1") {
				continue
			}
			dac++
			m := foldedRE.FindStringSubmatch(line)
			if m == nil || m[1] != m[2] {
				t.Errorf("%s: DAC filter not folded whole into its join:\n%s", q.Name, line)
			}
		}
		if dac < 2 || joins != dac {
			t.Errorf("%s: %d DAC filters, %d joins with a build filter; want both LFA1 and KNA1 folded:\n%s", q.Name, dac, joins, out)
		}
	}
}

// TestVecExplainAnalyzeQErrDrainedOnly pins that EXPLAIN ANALYZE prints
// q_err only for operators that ran to the end of their stream and
// counted their rows: not for a Sort fused into top-k (it records no
// rows), nor for operators under a LIMIT that stopped early — while the
// batch union under the top-k, which counts the rows it passes on, and
// every operator of the fully drained Figure 4 count(*) keep one.
func TestVecExplainAnalyzeQErrDrainedOnly(t *testing.T) {
	e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(sql string) string {
		t.Helper()
		out, err := e.ExplainAnalyze("user", sql)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	page := analyze(`select bid, id, amount from (select 1 bid, id, amount from doc_active union all
		select 2 bid, id, amount from doc_draft) u order by amount desc, bid, id limit 5 offset 2`)
	if line := planLine(t, page, "Sort"); strings.Contains(line, "q_err=") {
		t.Errorf("Sort line carries q_err:\n%s", line)
	}
	if line := planLine(t, page, "UnionAll"); !strings.Contains(line, "rows=840 ") || !strings.Contains(line, "q_err=") {
		t.Errorf("drained batch union did not count its 800+40 rows:\n%s", line)
	}
	if line := planLine(t, page, "Limit"); !strings.Contains(line, "q_err=") {
		t.Errorf("drained Limit lost its q_err:\n%s", line)
	}

	limited := analyze(`select id, amount from doc_active limit 3`)
	if line := planLine(t, limited, "Scan"); strings.Contains(line, "q_err=") {
		t.Errorf("scan under a stopped LIMIT carries q_err:\n%s", line)
	}

	fig4 := analyze("select count(*) from " + browser)
	for _, line := range strings.Split(fig4, "\n") {
		if line != "" && !strings.Contains(line, "q_err=") {
			t.Errorf("Figure 4 operator without q_err:\n%s", line)
		}
	}
}
