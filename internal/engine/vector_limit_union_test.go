package engine_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/s4"
)

// limitUnionBattery returns the LIMIT and UNION ALL source shapes:
// every LIMIT/OFFSET window (0, 1, a page crossing batch edges, an
// offset past the end, OFFSET alone) over a filtered scan, a join, an
// augmentation join whose anchor the LIMIT bounds, and a union; then the
// union over an empty branch, with branch constants, nested, over join
// branches, on either side of a join, and under group-by, top-k,
// DISTINCT and count(*).
// firstBranch is how many rows the union's first branch passes, so one
// page straddles the branch edge.
func limitUnionBattery(firstBranch int) []experiments.NamedQuery {
	const union = `select 1 bid, id, amount from sales_active where amount > 10.00
		union all select 2 bid, id, amount from sales_draft`
	inputs := []struct{ name, sql string }{
		{"scan", `select o_orderkey, o_totalprice from orders where o_totalprice > 1000.00`},
		{"join", `select o_orderkey, c_name from orders inner join customer on o_custkey = c_custkey
			where o_totalprice > 1000.00`},
		{"aj", `select o_orderkey, o_totalprice, c_name from orders left outer join customer on o_custkey = c_custkey`},
		{"union", union},
	}
	windows := []struct{ name, tail string }{
		{"limit0", " limit 0"},
		{"limit1", " limit 1"},
		{"across-batches", " limit 5 offset 4"},
		{"offset-past-end", " limit 10 offset 100000"},
		{"offset-only", " offset 3"},
	}
	var out []experiments.NamedQuery
	for _, in := range inputs {
		for _, w := range windows {
			out = append(out, experiments.NamedQuery{Name: in.name + "/" + w.name, SQL: in.sql + w.tail})
		}
	}
	u := "(" + union + ") u"
	return append(out, []experiments.NamedQuery{
		{Name: "union/across-branches", SQL: union + fmt.Sprintf(" limit 6 offset %d", firstBranch-3)},
		{Name: "empty-branch", SQL: `select id, amount from sales_active where status = 'none'
			union all select id, amount from sales_draft union all select id, amount from sales_active where id < 5`},
		{Name: "branch-constants", SQL: `select 'A' src, 1 bid, id, status from sales_active
			union all select status, 2, id, status from sales_draft`},
		{Name: "branch-constant-filter", SQL: `select * from (select 'A' src, id from sales_active
			union all select status, id from sales_draft) u where src = 'draft' or src = 'A'`},
		{Name: "union-of-unions", SQL: `select bid, id from ` + u + `
			union all select 3, o_orderkey from orders where o_orderkey < 20`},
		{Name: "probe-side", SQL: `select u.bid, u.id, f.fid, f.qty from ` + u + `
			inner join sales_facts f on u.bid = f.bid and u.id = f.sid`},
		{Name: "build-side", SQL: `select o_orderkey, o_totalprice, v.bid from orders inner join
			(select 1 bid, id from sales_active where id < 30 union all select 2 bid, id from sales_draft where id < 20) v
			on o_orderkey = v.id`},
		{Name: "outer-probe-side", SQL: `select f.fid, u.amount from sales_facts f left outer join ` + u + `
			on f.bid = u.bid and f.sid = u.id`},
		{Name: "group-by", SQL: `select bid, count(*) n, sum(amount) total from ` + u + ` group by bid`},
		{Name: "top-k", SQL: `select bid, id, amount from ` + u + ` order by amount desc, bid, id limit 7 offset 3`},
		{Name: "distinct", SQL: `select distinct bid from ` + u},
		{Name: "count-star", SQL: `select count(*) from ` + u},
		{Name: "join-branches", SQL: `select u.name from (select c_name name, o_orderkey k from orders
			inner join customer on o_custkey = c_custkey where o_totalprice > 1000.00
			union all select c_name, o_orderkey from customer left outer join orders on c_custkey = o_custkey) u`},
		{Name: "limit-join-union", SQL: `select u.id, f.fid from (` + union + ` limit 9 offset 2) u
			inner join sales_facts f on u.id = f.sid`},
	}...)
}

// TestVecLimitUnionEquivalence diffs LIMIT and UNION ALL as batch sources
// against the row executor, rows and order, at batch sizes that put
// batch edges everywhere (1, 2, 7) and nowhere (1024), before and after
// a delta merge. Every Limit and UnionAll in the battery must also run
// in batch mode (a Limit fused into top-k aside), so the diff really
// covers the batch sources.
func TestVecLimitUnionEquivalence(t *testing.T) {
	e := equivEngine(t)
	rowSerial := engine.Options{DisableVectorize: true}
	first := runMeta(t, e, `select count(*) from sales_active where amount > 10.00`, rowSerial, core.ProfileHANA)
	queries := limitUnionBattery(int(first.Rows[0][0].Int()))

	for _, q := range queries {
		text, err := e.ExplainAnalyze("", q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, line := range strings.Split(text, "\n") {
			op := strings.TrimSpace(line)
			if (strings.HasPrefix(op, "Limit") || strings.HasPrefix(op, "UnionAll")) &&
				!strings.Contains(op, "top_k=") && !strings.Contains(op, "mode=vector") {
				t.Errorf("%s: not a batch source:\n%s", q.Name, text)
			}
		}
	}

	// Without costing no join is marked BuildLeft, so a LIMIT-bounded
	// left input is the only reason either executor builds left.
	check := func(state string) {
		t.Helper()
		for _, costing := range []bool{true, false} {
			e.EnableCosting(costing)
			for _, q := range queries {
				ref := runMeta(t, e, q.SQL, rowSerial, core.ProfileHANA)
				for _, size := range []int{1, 2, 7, 1024} {
					got := runMeta(t, e, q.SQL, engine.Options{BatchSize: size}, core.ProfileHANA)
					label := fmt.Sprintf("%s/costing=%v/batch=%d/%s", state, costing, size, q.Name)
					requireSameRows(t, label, q.SQL, ref, got)
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

var scanRowsRE = regexp.MustCompile(`\[rows=(\d+) `)

// TestVecPageStopsAtLastRow pins that a page stops reading at its last
// row. On the Figure 14 data at the benchmark's read size, the union
// page's spliced always-true filter keeps the scan from being clamped
// statically, yet the active branch's scan must fill at most twice the
// page, and nothing in the plan may fall back to row mode.
func TestVecPageStopsAtLastRow(t *testing.T) {
	e, err := experiments.NewS4Engine(s4.TinySize(), s4.Fig14Size{ActiveRows: 20000, DraftRows: 200, Views: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	const page = 10
	text, err := e.ExplainAnalyze("", fmt.Sprintf("select * from C_Document003 where id > -1 limit %d", page))
	if err != nil {
		t.Fatal(err)
	}
	m := scanRowsRE.FindStringSubmatch(planLine(t, text, "Scan doc_active"))
	if m == nil {
		t.Fatalf("no rows= on the doc_active scan:\n%s", text)
	}
	if rows, _ := strconv.Atoi(m[1]); rows > 2*page {
		t.Errorf("doc_active scan filled %d rows for a page of %d:\n%s", rows, page, text)
	}
	if strings.Contains(text, "vec_fallback=") || !strings.Contains(text, "row_ops=0") {
		t.Errorf("page did not run on batches end to end:\n%s", text)
	}
}
