package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/s4"
)

// Vectorized-executor metamorphic suite: the batch executor must return
// ordered rows identical to the row-at-a-time executor for every query,
// across execution modes (default, 7-, 3-, 2- and 1-row batches), storage
// states (pre/post delta merge), costing on/off (which flips hash-join
// build sides), and batch sizes swept across boundary cases. The
// reference is always row-serial with costing on — the executor that
// predates batching.

// vecBattery is handcrafted to hit every batch kernel and operator, the
// NULL paths, and the shapes that must fall back to row execution.
func vecBattery() []experiments.NamedQuery {
	return []experiments.NamedQuery{
		// Filter kernels: typed comparisons against each column class.
		{Name: "dec-range", SQL: `select l_orderkey, l_quantity from lineitem where l_quantity > 25.00 order by l_orderkey, l_quantity`},
		{Name: "str-eq", SQL: `select o_orderkey from orders where o_orderstatus = 'O' order by o_orderkey`},
		{Name: "str-ne", SQL: `select c_custkey from customer where c_mktsegment <> 'BUILDING' order by c_custkey`},
		{Name: "int-range", SQL: `select o_orderkey from orders where o_orderkey >= 50 and o_orderkey < 120 order by o_orderkey`},
		{Name: "mixed-dec-int", SQL: `select l_orderkey, l_linenumber from lineitem where l_quantity > 20 order by l_orderkey, l_linenumber`},
		{Name: "mixed-date-int", SQL: `select o_orderkey from orders where o_orderdate >= 9000 order by o_orderkey`},
		{Name: "in-list", SQL: `select o_orderkey from orders where o_orderpriority in ('1-URGENT', '5-LOW') order by o_orderkey`},
		{Name: "not-in-list", SQL: `select o_orderkey from orders where o_orderstatus not in ('O', 'P') order by o_orderkey`},
		{Name: "is-null", SQL: `select o_orderkey from orders where o_orderdate is null order by o_orderkey`},
		{Name: "is-not-null", SQL: `select l_orderkey, l_linenumber from lineitem where l_shipdate is not null and l_orderkey < 40 order by l_orderkey, l_linenumber`},
		{Name: "multi-conjunct", SQL: `select c_custkey, c_acctbal from customer where c_acctbal >= 500.00 and c_mktsegment <> 'BUILDING' and c_custkey < 90 order by c_custkey`},
		{Name: "empty-filter", SQL: `select o_orderkey from orders where o_orderkey < 0 order by o_orderkey`},

		// Aggregation: scalar, grouped on strings/ints/dates, NULL keys
		// and NULL inputs, empty inputs.
		{Name: "scalar-agg", SQL: `select count(*), sum(l_quantity), min(l_extendedprice), max(l_extendedprice), avg(l_quantity) from lineitem`},
		{Name: "scalar-agg-filtered", SQL: `select count(*), sum(o_totalprice) from orders where o_orderstatus = 'O'`},
		{Name: "scalar-agg-empty", SQL: `select count(*), sum(o_totalprice), min(o_totalprice) from orders where o_orderkey < 0`},
		{Name: "group-str", SQL: `select l_returnflag, count(*), sum(l_quantity), avg(l_extendedprice) from lineitem group by l_returnflag order by l_returnflag`},
		{Name: "group-int", SQL: `select l_linenumber, min(l_quantity), max(l_quantity) from lineitem group by l_linenumber order by l_linenumber`},
		{Name: "group-multi", SQL: `select o_orderstatus, o_orderpriority, count(*) from orders group by o_orderstatus, o_orderpriority order by o_orderstatus, o_orderpriority`},
		{Name: "group-null-key", SQL: `select o_orderdate, count(*) from orders group by o_orderdate order by o_orderdate`},
		{Name: "group-empty", SQL: `select o_orderstatus, count(*) from orders where o_orderkey < 0 group by o_orderstatus order by o_orderstatus`},
		{Name: "group-filtered", SQL: `select o_orderstatus, sum(o_totalprice) from orders where o_totalprice > 500.00 group by o_orderstatus order by o_orderstatus`},

		// Joins: inner/left-outer, filters on both inputs, key types.
		{Name: "join-inner", SQL: `select c_custkey, c_name, o_orderkey, o_totalprice from orders inner join customer on o_custkey = c_custkey order by o_orderkey, c_custkey`},
		{Name: "join-filtered", SQL: `select c_custkey, o_orderkey from customer inner join orders on c_custkey = o_custkey where c_acctbal > 1000.00 and o_totalprice > 500.00 order by c_custkey, o_orderkey`},
		{Name: "join-left-outer", SQL: `select c_custkey, o_orderkey from customer left outer join orders on c_custkey = o_custkey order by c_custkey, o_orderkey`},
		{Name: "join-projected", SQL: `select o_totalprice from orders inner join customer on o_custkey = c_custkey order by o_totalprice`},

		// Joins over joins: a join's output batches feed joins, filters,
		// aggregates, top-k and DISTINCT. The fixture deleted order 7, so
		// its line items dangle, and order 90001 has a NULL date. Queries
		// without ORDER BY pin the join's own emission order; costing
		// on/off flips build sides (BuildLeft on the small side, else
		// build right), and the batch legs split fan-outs across batches.
		{Name: "join-join", SQL: `select c_custkey, o_orderkey, l_linenumber from customer inner join orders on c_custkey = o_custkey inner join lineitem on o_orderkey = l_orderkey order by c_custkey, o_orderkey, l_linenumber`},
		{Name: "join3-outer-chain", SQL: `select l_orderkey, l_linenumber, o_orderdate, c_custkey, c_mktsegment, n_name from lineitem
			left outer join orders on l_orderkey = o_orderkey
			left outer join (select c_custkey, c_mktsegment, c_nationkey from customer where c_acctbal > 2000.00) c on o_custkey = c_custkey
			left outer join (select n_nationkey, n_name from nation where n_regionkey < 3) n on c_nationkey = n_nationkey`},
		{Name: "join3-outer-or-isnull", SQL: `select l_orderkey, l_linenumber, c_custkey, n_name from lineitem
			left outer join orders on l_orderkey = o_orderkey
			left outer join (select c_custkey, c_nationkey from customer where c_acctbal > 2000.00) c on o_custkey = c_custkey
			left outer join (select n_nationkey, n_name from nation where n_regionkey < 3) n on c_nationkey = n_nationkey
			where (n_name in ('ALGERIA', 'BRAZIL', 'CHINA', 'EGYPT') or n_name is null) and (c_custkey < 30 or c_custkey is null)`},
		{Name: "join-null-date-key", SQL: `select o_orderkey, l_orderkey, l_linenumber, c_name from orders
			left outer join lineitem on o_orderdate = l_shipdate
			left outer join customer on o_custkey = c_custkey where o_orderkey < 60 or o_orderkey > 90000`},
		{Name: "join-build-left-tail", SQL: `select n_nationkey, n_name, c_custkey, r_name from
			(select n_nationkey, n_name, n_regionkey from nation where n_nationkey < 12) n
			left outer join customer on n_nationkey = c_nationkey left outer join region on n_regionkey = r_regionkey`},
		{Name: "join-tail-into-build", SQL: `select o_orderkey, n_name, c_custkey, c_name from orders left outer join
			(select n_name, c_custkey, c_name from (select n_nationkey, n_name from nation where n_nationkey < 12) n
			left outer join customer on n_nationkey = c_nationkey) nc on o_custkey = c_custkey`},
		{Name: "join-build-left-bounded", SQL: `select o_orderkey, c_custkey, c_name, n_name from
			(select o_orderkey, o_custkey from orders order by o_orderkey limit 30) o
			left outer join customer on o_custkey = c_custkey left outer join nation on c_nationkey = n_nationkey`},
		{Name: "join-fanout", SQL: `select c_custkey, c_name, o_orderkey, l_linenumber, l_quantity from customer
			inner join orders on c_custkey = o_custkey inner join lineitem on o_orderkey = l_orderkey`},
		{Name: "join-fanout-outer", SQL: `select c_custkey, o_orderkey, l_linenumber from customer
			left outer join orders on c_custkey = o_custkey left outer join lineitem on o_orderkey = l_orderkey`},
		{Name: "join-empty-build", SQL: `select o_orderkey, c_name, n_name from orders
			left outer join (select c_custkey, c_name, c_nationkey from customer where c_custkey < 0) c on o_custkey = c_custkey
			left outer join nation on c_nationkey = n_nationkey`},
		{Name: "join-empty-build-inner", SQL: `select count(*), sum(o_totalprice) from orders
			inner join (select c_custkey from customer where c_custkey < 0) c on o_custkey = c_custkey
			inner join lineitem on o_orderkey = l_orderkey`},
		{Name: "join-multi-key", SQL: `select l_orderkey, l_linenumber, ps_availqty, p_name from lineitem
			inner join partsupp on l_partkey = ps_partkey and l_suppkey = ps_suppkey
			inner join part on ps_partkey = p_partkey`},
		{Name: "join-decimal-key", SQL: `select a.l_orderkey, a.l_linenumber, b.l_orderkey, o_orderstatus from lineitem a
			inner join lineitem b on a.l_quantity = b.l_quantity
			inner join orders on b.l_orderkey = o_orderkey where a.l_orderkey < 25`},
		{Name: "join-computed-strs", SQL: `select o_orderkey, tag, n_label from orders
			inner join (select c_custkey, c_name || '#' || c_mktsegment tag, c_nationkey from customer) c on o_custkey = c_custkey
			left outer join (select n_nationkey, lower(n_name) n_label from nation where n_nationkey < 15) n on c_nationkey = n_nationkey
			where o_orderkey < 100`},
		{Name: "join-computed-str-key", SQL: `select a.c_custkey, b.c_custkey, b.seg from
			(select c_custkey, upper(c_mktsegment) seg from customer where c_custkey < 10) a
			inner join (select c_custkey, upper(c_mktsegment) seg from customer where c_custkey < 30) b on a.seg = b.seg`},
		{Name: "join-group-str", SQL: `select n_name, count(*), sum(o_totalprice) from orders
			inner join customer on o_custkey = c_custkey inner join nation on c_nationkey = n_nationkey
			group by n_name order by n_name`},
		{Name: "join-group-outer", SQL: `select c_mktsegment, count(*), count(o_orderkey), max(l_quantity) from customer
			left outer join orders on c_custkey = o_custkey left outer join lineitem on o_orderkey = l_orderkey
			group by c_mktsegment order by c_mktsegment`},
		{Name: "join-scalar-agg", SQL: `select count(*), min(n_name), avg(l_extendedprice) from lineitem
			inner join orders on l_orderkey = o_orderkey inner join customer on o_custkey = c_custkey
			inner join nation on c_nationkey = n_nationkey`},
		{Name: "join-topk-ties", SQL: `select c_mktsegment, o_orderstatus, o_orderkey from orders
			inner join customer on o_custkey = c_custkey inner join nation on c_nationkey = n_nationkey
			order by c_mktsegment, o_orderstatus limit 15 offset 4`},
		{Name: "join-topk-outer", SQL: `select n_name, c_name, o_totalprice from orders
			left outer join customer on o_custkey = c_custkey left outer join nation on c_nationkey = n_nationkey
			order by n_name desc, o_totalprice limit 12`},
		{Name: "join-distinct", SQL: `select distinct n_name, c_mktsegment from customer
			inner join nation on c_nationkey = n_nationkey inner join orders on c_custkey = o_custkey`},
		{Name: "join-distinct-outer", SQL: `select distinct o_orderstatus, c_mktsegment, n_regionkey from orders
			left outer join customer on o_custkey = c_custkey left outer join nation on c_nationkey = n_nationkey
			where n_regionkey in (1, 2) or n_regionkey is null`},

		// Expression kernels: arithmetic, column-vs-column comparisons,
		// CASE, concat, and scalar functions in filters and projections.
		{Name: "expr-mul-proj", SQL: `select l_orderkey, l_linenumber, l_quantity * l_extendedprice from lineitem order by l_orderkey, l_linenumber`},
		{Name: "expr-arith-proj", SQL: `select l_orderkey, l_linenumber, l_extendedprice - l_discount, l_linenumber + 1 from lineitem order by l_orderkey, l_linenumber`},
		{Name: "expr-arith-filter", SQL: `select l_orderkey, l_linenumber from lineitem where l_extendedprice * l_discount > 100.00 order by l_orderkey, l_linenumber`},
		{Name: "expr-col-col", SQL: `select l_orderkey, l_linenumber from lineitem where l_discount < l_tax order by l_orderkey, l_linenumber`},
		{Name: "expr-not", SQL: `select o_orderkey from orders where not (o_totalprice > 1000.00) order by o_orderkey`},
		{Name: "expr-case-proj", SQL: `select o_orderkey, case when o_totalprice > 2000.00 then 'big' when o_totalprice > 1000.00 then 'mid' else 'small' end from orders order by o_orderkey`},
		{Name: "expr-case-filter", SQL: `select o_orderkey from orders where case when o_orderdate is null then o_totalprice > 100.00 else o_totalprice > 2000.00 end order by o_orderkey`},
		{Name: "expr-concat", SQL: `select c_custkey, c_name || '/' || c_mktsegment from customer order by c_custkey`},
		{Name: "expr-func-str", SQL: `select o_orderkey, upper(o_orderpriority), length(o_orderpriority) from orders order by o_orderkey`},
		{Name: "expr-func-misc", SQL: `select c_custkey, substr(c_name, 1, 8), round(c_acctbal, 1), abs(c_acctbal) from customer order by c_custkey`},
		{Name: "expr-ifnull", SQL: `select o_orderkey, ifnull(o_orderpriority, 'none') from orders order by o_orderkey`},

		// OR kernels: per-branch selection vectors merged by ordered
		// union, including IS NULL / IN branches and ANDs inside ORs.
		{Name: "or-range", SQL: `select o_orderkey from orders where o_orderkey < 20 or o_totalprice > 3000.00 order by o_orderkey`},
		{Name: "or-same-col", SQL: `select o_orderkey from orders where o_orderkey < 10 or o_orderkey > 90 order by o_orderkey`},
		{Name: "or-eq-chain", SQL: `select o_orderkey from orders where o_orderstatus = 'O' or o_orderstatus = 'F' order by o_orderkey`},
		{Name: "or-and-mix", SQL: `select o_orderkey from orders where (o_orderkey < 30 and o_totalprice > 500.00) or o_orderpriority = '1-URGENT' order by o_orderkey`},
		{Name: "or-isnull-branch", SQL: `select o_orderkey from orders where o_orderdate is null or o_orderkey < 15 order by o_orderkey`},
		{Name: "or-nested", SQL: `select o_orderkey from orders where o_orderkey in (1, 2, 3) or (o_orderstatus = 'P' or o_totalprice < 200.00) order by o_orderkey`},

		// Top-k paging: bounded heap over typed keys with late
		// materialization; ties, NULL keys, computed keys, offsets.
		{Name: "topk-over-vec", SQL: `select o_orderkey, o_totalprice from orders where o_totalprice > 100.00 order by o_totalprice desc, o_orderkey limit 7`},
		{Name: "topk-nulls-desc", SQL: `select o_orderkey, o_orderdate from orders order by o_orderdate desc, o_orderkey limit 9 offset 2`},
		{Name: "topk-multikey", SQL: `select l_orderkey, l_linenumber, l_quantity from lineitem order by l_quantity desc, l_orderkey, l_linenumber limit 13 offset 5`},
		{Name: "topk-expr-key", SQL: `select l_orderkey, l_linenumber from lineitem order by l_extendedprice * l_discount desc, l_orderkey, l_linenumber limit 6`},
		{Name: "topk-ties", SQL: `select o_orderkey, o_orderstatus from orders order by o_orderstatus limit 10 offset 3`},
		{Name: "topk-filtered", SQL: `select c_custkey, c_acctbal from customer where c_mktsegment <> 'BUILDING' order by c_acctbal desc, c_custkey limit 5`},

		// UNION ALL branches and DISTINCT over typed AppendKey encodings,
		// including DISTINCT straight over a union.
		{Name: "union-all", SQL: `select id, amount from (select id, amount from sales_active union all select id, amount from sales_draft) u order by id, amount`},
		{Name: "union-topk", SQL: `select bid, id, amount from (select 1 bid, id, amount from sales_active union all select 2 bid, id, amount from sales_draft) u order by amount desc, bid, id limit 5 offset 2`},
		{Name: "distinct-single", SQL: `select distinct o_orderpriority from orders`},
		{Name: "distinct-multi", SQL: `select distinct o_orderstatus, o_orderpriority from orders`},
		{Name: "distinct-filtered", SQL: `select distinct c_mktsegment from customer where c_acctbal > 500.00`},
		{Name: "distinct-expr", SQL: `select distinct l_returnflag || '-', l_linenumber + 0 from lineitem`},
		{Name: "distinct-union", SQL: `select distinct status from (select status from sales_active union all select status from sales_draft) u`},

		// Row-path fallbacks the batch planner must decline, mixed into
		// the same suite so declines are exercised alongside accepts.
		{Name: "fallback-div", SQL: `select l_orderkey, l_linenumber, l_extendedprice / l_quantity from lineitem order by l_orderkey, l_linenumber`},
		{Name: "fallback-mod", SQL: `select o_orderkey from orders where mod(o_orderkey, 7) = 0 order by o_orderkey`},
		{Name: "fallback-distinct", SQL: `select o_orderstatus, count(distinct o_custkey) from orders group by o_orderstatus order by o_orderstatus`},
		{Name: "fallback-sort", SQL: `select o_orderkey, o_totalprice from orders where o_totalprice > 500.00 order by o_totalprice desc, o_orderkey`},
		{Name: "fallback-div-filter", SQL: `select l_orderkey, l_linenumber from lineitem where l_orderkey < 40 and l_extendedprice / l_quantity > 10.00 order by l_orderkey, l_linenumber`},
		{Name: "fallback-join-residual", SQL: `select c_custkey, o_orderkey, l_linenumber from customer inner join orders on c_custkey = o_custkey and o_totalprice > c_acctbal inner join lineitem on o_orderkey = l_orderkey order by c_custkey, o_orderkey, l_linenumber`},

		// Paging: LIMIT directly over a scan clamps the adapter's batch
		// size to offset+count (both executors emit scan order, so the
		// page is deterministic without ORDER BY); a filtered scan must
		// not clamp; the join shape is the Figure 6 paging query.
		{Name: "limit-scan", SQL: `select o_orderkey from orders limit 7 offset 2`},
		{Name: "limit-filter-scan", SQL: `select o_orderkey from orders where o_orderstatus = 'O' limit 5 offset 1`},
		{Name: "limit-join", SQL: `select o_orderkey, c_custkey from orders left outer join customer on o_custkey = c_custkey limit 11 offset 3`},
	}
}

// vecLegs are the execution modes diffed against the row-serial
// reference.
func vecLegs() []struct {
	name string
	opts engine.Options
} {
	return []struct {
		name string
		opts engine.Options
	}{
		{"vec", engine.Options{}},
		{"vec-batch7", engine.Options{BatchSize: 7}},
		{"vec-tiny-batch", engine.Options{BatchSize: 3}},
		{"vec-batch2", engine.Options{BatchSize: 2}},
		{"vec-batch1", engine.Options{BatchSize: 1}},
	}
}

// TestVectorRowEquivalence diffs the batch executor against the row
// executor over the handcrafted battery plus seeded random queries,
// across costing on/off and pre/post-merge storage states.
func TestVectorRowEquivalence(t *testing.T) {
	e := equivEngine(t)

	queries := vecBattery()
	gen := newQueryGen(20260808)
	for i := 0; i < 25; i++ {
		queries = append(queries, experiments.NamedQuery{
			Name: fmt.Sprintf("gen-%d", i),
			SQL:  gen.next(),
		})
	}

	rowSerial := engine.Options{DisableVectorize: true}

	check := func(state string) {
		t.Helper()
		for _, costing := range []bool{true, false} {
			e.EnableCosting(costing)
			label := fmt.Sprintf("%s/costing=%v", state, costing)
			for _, q := range queries {
				ref := runMeta(t, e, q.SQL, rowSerial, core.ProfileHANA)
				for _, leg := range vecLegs() {
					got := runMeta(t, e, q.SQL, leg.opts, core.ProfileHANA)
					requireSameRows(t, label+"/"+leg.name+"/"+q.Name, q.SQL, ref, got)
				}
			}
		}
		e.EnableCosting(true)
	}

	check("pre-merge")
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	check("post-merge")
}

const browser = "JournalEntryItemBrowser"

// vdmRoundStatements are the seven statements of a vdm_read round over
// the tiny S/4 fixture plus Figure 3's select *, paged.
func vdmRoundStatements() []experiments.NamedQuery {
	return []experiments.NamedQuery{
		{Name: "count_star", SQL: "select count(*) from " + browser},
		{Name: "narrow_page", SQL: "select rbukrs, gjahr, belnr, docln, hsl, sup_name1, cus_name1 from " + browser + " limit 100 offset 20"},
		{Name: "group_by", SQL: "select rbukrs, company_name, sum(hsl) total, count(*) n from " + browser + " group by rbukrs, company_name order by rbukrs, company_name"},
		{Name: "filtered_agg", SQL: "select cty_landx, sum(hsl) total, count(*) n from " + browser + " where gjahr = 2023 group by cty_landx order by cty_landx"},
		{Name: "topk", SQL: "select belnr, docln, hsl, cus_name1 from " + browser + " order by hsl desc, belnr, docln limit 50"},
		{Name: "casejoin_page", SQL: "select * from C_Document001XC limit 10"},
		{Name: "union_page", SQL: "select * from C_Document003 limit 10"},
		{Name: "select_star", SQL: "select * from " + browser + " limit 100"},
	}
}

// TestVectorVDMStatementsMatchRowPath diffs the benchmark's VDM read
// statements — the seven of a vdm_read round and Figure 3's select * —
// and the unoptimized (ProfileNone) unfolding of the 57-join browser
// against the row executor on the tiny S/4 fixture, as the DAC-filtered
// session user. These are the deep join stacks the batch joins were
// built for; the benchmark's own oracle computes both of its sides with
// the batch executor, so it cannot catch a bug both sides share.
func TestVectorVDMStatementsMatchRowPath(t *testing.T) {
	e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Tiny())
	if err != nil {
		t.Fatal(err)
	}
	type stmt struct {
		name, sql string
		profile   core.Profile
	}
	var stmts []stmt
	for _, q := range vdmRoundStatements() {
		stmts = append(stmts, stmt{q.Name, q.SQL, core.ProfileHANA})
	}
	stmts = append(stmts, stmt{"unfolded", "select rbukrs, gjahr, belnr, docln, hsl, company_name, cty_landx, sup_name1, cus_name1 from " + browser, core.ProfileNone})
	run := func(sqlText string, o engine.Options, p core.Profile) *engine.Result {
		t.Helper()
		e.SetOptions(o)
		e.SetProfile(p)
		res, err := e.QueryAs("user", sqlText)
		if err != nil {
			t.Fatalf("query %q: %v", sqlText, err)
		}
		return res
	}
	for _, s := range stmts {
		ref := run(s.sql, engine.Options{DisableVectorize: true}, s.profile)
		if len(ref.Rows) == 0 {
			t.Fatalf("%s: the reference returned no rows", s.name)
		}
		for _, leg := range vecLegs() {
			requireSameRows(t, s.name+"/"+leg.name, s.sql, ref, run(s.sql, leg.opts, s.profile))
		}
	}
}

// TestDeclinedShapesScanVector pins what a vector decline costs: only
// the declined operator runs the row iterator; the scan beneath it
// stays a batch scan. (TestVectorRowEquivalence diffs the same queries'
// rows against the row-serial reference.)
func TestDeclinedShapesScanVector(t *testing.T) {
	e := equivEngine(t)

	declined := map[string]string{ // battery query -> its declined operator
		"fallback-distinct":      "GroupBy",
		"fallback-div-filter":    "Filter",
		"fallback-join-residual": "InnerJoin on ((c_custkey",
	}
	seen := 0
	for _, q := range vecBattery() {
		op, ok := declined[q.Name]
		if !ok {
			continue
		}
		seen++
		out, err := e.ExplainAnalyze("", q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		lines := strings.Split(out, "\n")
		at := -1
		for i, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), op) {
				at = i
				break
			}
		}
		if at < 0 || !strings.Contains(lines[at], "mode=row") {
			t.Errorf("%s: %s is not a row operator:\n%s", q.Name, op, out)
			continue
		}
		scanVector := false
		for _, l := range lines[at+1:] {
			if strings.HasPrefix(strings.TrimSpace(l), "Scan") && strings.Contains(l, "mode=vector") {
				scanVector = true
			}
		}
		if !scanVector {
			t.Errorf("%s: no batch scan beneath the declined %s:\n%s", q.Name, op, out)
		}
	}
	if seen != len(declined) {
		t.Fatalf("vecBattery has %d of the %d declined shapes", seen, len(declined))
	}
}

// TestVectorBatchBoundarySweep sweeps the batch size across boundary
// cases — 1, 2, odd primes, around the default, and around the largest
// table's row-version count — so off-by-one errors at batch edges,
// selection-vector wraps, and per-batch dictionary rebasing all surface
// as result diffs.
func TestVectorBatchBoundarySweep(t *testing.T) {
	e := equivEngine(t)
	queries := []experiments.NamedQuery{
		{Name: "scan-agg", SQL: `select count(*), sum(l_quantity), avg(l_extendedprice) from lineitem where l_quantity > 10.00`},
		{Name: "group-str", SQL: `select l_returnflag, count(*), sum(l_quantity) from lineitem group by l_returnflag order by l_returnflag`},
		{Name: "filter-str", SQL: `select o_orderkey from orders where o_orderstatus = 'O' and o_orderpriority in ('1-URGENT', '2-HIGH') order by o_orderkey`},
		{Name: "join", SQL: `select c_custkey, o_orderkey, o_totalprice from customer inner join orders on c_custkey = o_custkey order by c_custkey, o_orderkey`},
	}

	rowSerial := engine.Options{DisableVectorize: true}
	ref := make([]*engine.Result, len(queries))
	for i, q := range queries {
		ref[i] = runMeta(t, e, q.SQL, rowSerial, core.ProfileHANA)
	}

	// The largest row-position domain in the fixture: lineitem's
	// row-version count (visible or not), which is what scans batch over.
	rows, err := e.Query(`select count(*) from lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	n := int(rows.Rows[0][0].Int())
	if n < 2 {
		t.Fatalf("fixture too small: %d lineitem rows", n)
	}

	sizes := []int{1, 2, 3, 5, 7, 11, 13, 31, 97, 1009, n - 1, n, n + 1}
	for _, bs := range sizes {
		for i, q := range queries {
			label := fmt.Sprintf("batch=%d/%s", bs, q.Name)
			got := runMeta(t, e, q.SQL, engine.Options{BatchSize: bs}, core.ProfileHANA)
			requireSameRows(t, label, q.SQL, ref[i], got)
		}
	}
}
