package engine_test

import (
	"regexp"
	"strconv"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
)

func refreshAllStats(t *testing.T, e *engine.Engine) {
	t.Helper()
	for _, name := range e.DB().TableNames() {
		if tbl, ok := e.DB().Table(name); ok {
			tbl.RefreshStats()
		}
	}
}

var qErrRE = regexp.MustCompile(`q_err=([0-9.]+)`)

// TestQErrorOnExperimentWorkloads is the estimation-quality acceptance
// gate: on the TPC-H experiment fixture, unfiltered scans and the
// primary-key/foreign-key joins of the workload must estimate within a
// q-error of 2 on every operator of the plan. Scan cardinalities come
// from exact live-row counts and join cardinalities from unique-index
// distinct counts, so there is no sampling noise to excuse a miss.
func TestQErrorOnExperimentWorkloads(t *testing.T) {
	e := equivEngine(t)
	refreshAllStats(t, e)

	queries := []struct {
		name string
		sql  string
	}{
		{"scan-orders", `select o_orderkey, o_totalprice from orders`},
		{"scan-customer", `select c_custkey, c_name from customer`},
		{"scan-lineitem", `select l_orderkey, l_quantity from lineitem`},
		{"join-orders-customer", `select o_orderkey, c_name
		    from orders inner join customer on o_custkey = c_custkey`},
		{"join-lineitem-orders", `select l_orderkey, o_totalprice
		    from lineitem inner join orders on l_orderkey = o_orderkey`},
		{"join-agg", `select c_mktsegment, count(*)
		    from orders inner join customer on o_custkey = c_custkey
		    group by c_mktsegment`},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			out, err := e.ExplainAnalyze("", q.sql)
			if err != nil {
				t.Fatal(err)
			}
			matches := qErrRE.FindAllStringSubmatch(out, -1)
			if len(matches) == 0 {
				t.Fatalf("no q_err annotations in EXPLAIN ANALYZE:\n%s", out)
			}
			for _, m := range matches {
				v, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				if v > 2.0 {
					t.Errorf("operator q-error %.2f exceeds 2:\n%s", v, out)
				}
			}
		})
	}
}

// TestMetamorphicCosting is the metamorphic leg for the cost pass: a
// seeded battery of random queries must return identical ordered rows
// with costing on and off, with stale and freshly rebuilt statistics,
// at the default batch size and at seven-row batches. Costing may only
// change plan shape —
// build sides and join order — never results.
func TestMetamorphicCosting(t *testing.T) {
	e := equivEngine(t)
	gen := newQueryGen(20260805)
	const numQueries = 30
	queries := make([]string, numQueries)
	for i := range queries {
		queries[i] = gen.next()
	}
	// A handful of handcrafted multi-join chains the generator cannot
	// produce, aimed squarely at the reorder pass.
	queries = append(queries,
		`select c_name, o_orderkey, l_linenumber
		   from lineitem
		   inner join orders on l_orderkey = o_orderkey
		   inner join customer on o_custkey = c_custkey
		   order by c_name, o_orderkey, l_linenumber`,
		`select c_mktsegment, count(*)
		   from lineitem
		   inner join orders on l_orderkey = o_orderkey
		   inner join customer on o_custkey = c_custkey
		   where o_totalprice > 500.00
		   group by c_mktsegment order by c_mktsegment`,
	)

	serial := engine.Options{}
	batch7 := engine.Options{BatchSize: 7}
	prof := core.ProfileHANA

	type leg struct {
		name    string
		costing bool
		fresh   bool
		opts    engine.Options
	}
	legs := []leg{
		{"costed-stale-serial", true, false, serial},
		{"costed-stale-batch7", true, false, batch7},
		{"costed-fresh-serial", true, true, serial},
		{"costed-fresh-batch7", true, true, batch7},
		{"uncosted-batch7", false, false, batch7},
	}

	for qi, q := range queries {
		// Reference: costing off, serial, whatever statistics happen to
		// be loaded.
		e.EnableCosting(false)
		want := runMeta(t, e, q, serial, prof)
		fresh := false
		for _, l := range legs {
			if l.fresh && !fresh {
				refreshAllStats(t, e)
				fresh = true
			}
			e.EnableCosting(l.costing)
			got := runMeta(t, e, q, l.opts, prof)
			requireSameRows(t, l.name, q, want, got)
		}
		e.EnableCosting(true)
		if testing.Verbose() && qi%10 == 0 {
			t.Logf("query %d/%d ok", qi+1, len(queries))
		}
		if !fresh {
			continue
		}
		// Make the statistics stale again for the next query: the DML
		// below shifts row counts without a refresh.
		if qi%7 == 3 {
			if err := e.ExecScript(
				`insert into orders values (91000, 2, 'O', 1.00, null, '5-LOW');
				 delete from orders where o_orderkey = 91000;`); err != nil {
				t.Fatal(err)
			}
		}
	}
}
