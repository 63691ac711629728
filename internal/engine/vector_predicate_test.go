package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vdm/internal/core"
	"vdm/internal/engine"
)

// insertScript renders a multi-row INSERT of n generated rows.
func insertScript(table string, n int, row func(i int) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "insert into %s values ", table)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + row(i) + ")")
	}
	return sb.String() + ";"
}

// zoneEngine loads z(id, x, y) with 20 000 rows, x ascending, and merges
// them into the main fragment: 20 zone-map blocks of 1024 rows, x's
// blocks disjoint.
func zoneEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New()
	script := "create table z (id bigint primary key, x bigint, y bigint);\n" +
		insertScript("z", 20000, func(i int) string { return fmt.Sprintf("%d, %d, %d", i, i, i%97) })
	if err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	return e
}

// zoneSkips runs sql under o and returns its rows and how many zone-map
// blocks it skipped.
func zoneSkips(t *testing.T, e *engine.Engine, sql string, o engine.Options) (*engine.Result, int64) {
	t.Helper()
	before := metricValue(t, e, "storage.zonemap_block_skips")
	res := runMeta(t, e, sql, o, core.ProfileHANA)
	return res, metricValue(t, e, "storage.zonemap_block_skips") - before
}

// TestVecZoneMapSkipsOncePerBlock pins that a scan examines and counts
// each pruned zone-map block once: x < 100 matches only the first of 20
// blocks, so both executors, at any batch size, skip exactly 19. A batch
// scan that resumed inside a run of pruned blocks would walk and count
// the rest of the run again on every batch.
func TestVecZoneMapSkipsOncePerBlock(t *testing.T) {
	e := zoneEngine(t)
	const sql = `select count(*) from z where x < 100`
	for _, o := range []engine.Options{{DisableVectorize: true}, {}, {BatchSize: 7}, {BatchSize: 1000}} {
		res, skips := zoneSkips(t, e, sql, o)
		if n := res.Rows[0][0].Int(); n != 100 {
			t.Errorf("%+v: count %d, want 100", o, n)
		}
		if skips != 19 {
			t.Errorf("%+v: %d zone-map block skips, want 19", o, skips)
		}
	}
}

// TestVecZoneMapParity requires the row and batch executors to return
// the same rows and skip the same zone-map blocks on every filter shape
// that prunes: both derive their ranges from one function, OR included.
func TestVecZoneMapParity(t *testing.T) {
	e := zoneEngine(t)
	shapes := []struct {
		name, sql string
		minSkips  int64
	}{
		{"single-range", `select id, y from z where x < 2000`, 18},
		{"stacked", `select id from (select id, x from z where x > 5000) s where x < 7000`, 17},
		{"over-project", `select * from (select id, x, y * 2 y2 from z) p where x >= 19000 and y2 > 10`, 18},
		{"eq-and-range", `select id from z where x >= 3000 and x = 4000`, 19},
		{"or-points", `select id from z where x = 5 or x = 2000`, 18},
		{"or-ranges", `select id from z where x < 100 or x < 300`, 19},
		{"declined-beside-range", `select id from z where x / 1 < 100 and x < 300`, 19},
	}
	for _, s := range shapes {
		ref, rowSkips := zoneSkips(t, e, s.sql, engine.Options{DisableVectorize: true})
		if rowSkips < s.minSkips {
			t.Errorf("%s: row path skipped %d blocks, want at least %d", s.name, rowSkips, s.minSkips)
		}
		for _, o := range []engine.Options{{}, {BatchSize: 7}} {
			got, skips := zoneSkips(t, e, s.sql, o)
			requireSameRows(t, fmt.Sprintf("%s/batch=%d", s.name, o.BatchSize), s.sql, ref, got)
			if skips != rowSkips {
				t.Errorf("%s/batch=%d: %d zone-map block skips, row path %d", s.name, o.BatchSize, skips, rowSkips)
			}
		}
	}
}

// predGen generates random well-typed predicate trees over the columns
// of po: i bigint, d decimal, f double, dt date, b bool and s varchar,
// each with NULLs.
type predGen struct{ r *rand.Rand }

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// lit returns a literal for column c: NULL one time in ten, and for the
// numeric columns an integer or a decimal literal at random.
func (g *predGen) lit(c string) string {
	r := g.r
	if r.Intn(10) == 0 {
		return "null"
	}
	switch c {
	case "b":
		return []string{"true", "false"}[r.Intn(2)]
	case "s", "upper(s)":
		return fmt.Sprintf("'%s'", []string{"a", "b", "c", "B", "e", "zz", ""}[r.Intn(7)])
	case "dt":
		return fmt.Sprint(19000 + r.Intn(60))
	}
	if r.Intn(2) == 0 {
		return fmt.Sprint(r.Intn(120) - 60)
	}
	return fmt.Sprintf("%d.%02d", r.Intn(120)-60, r.Intn(100))
}

// atom returns one predicate atom over the columns cols.
func (g *predGen) atom(cols []string) string {
	r := g.r
	c := cols[r.Intn(len(cols))]
	switch k := r.Intn(10); {
	case k < 4: // comparison with a literal, either orientation
		op := cmpOps[r.Intn(len(cmpOps))]
		if r.Intn(3) == 0 {
			return fmt.Sprintf("%s %s %s", g.lit(c), op, c)
		}
		return fmt.Sprintf("%s %s %s", c, op, g.lit(c))
	case k < 6: // [NOT] IN, sometimes with a NULL element
		list := []string{g.lit(c), g.lit(c)}
		if r.Intn(3) == 0 {
			list = append(list, "null")
		}
		not := ""
		if r.Intn(2) == 0 {
			not = "not "
		}
		return fmt.Sprintf("%s %sin (%s)", c, not, strings.Join(list, ", "))
	case k < 8:
		not := ""
		if r.Intn(2) == 0 {
			not = "not "
		}
		return fmt.Sprintf("%s is %snull", c, not)
	}
	// A computed operand: col + 1 on a number, upper(s) on a string.
	switch c {
	case "i", "d", "f":
		return fmt.Sprintf("%s + 1 %s %s", c, cmpOps[r.Intn(len(cmpOps))], g.lit(c))
	case "s":
		return fmt.Sprintf("upper(s) %s %s", cmpOps[r.Intn(len(cmpOps))], g.lit("upper(s)"))
	}
	return fmt.Sprintf("%s is not null", c)
}

// tree returns a random AND/OR/NOT tree of atoms over cols.
func (g *predGen) tree(cols []string, depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.atom(cols)
	}
	switch g.r.Intn(5) {
	case 0:
		return "not (" + g.tree(cols, depth-1) + ")"
	case 1, 2:
		return "(" + g.tree(cols, depth-1) + " and " + g.tree(cols, depth-1) + ")"
	}
	return "(" + g.tree(cols, depth-1) + " or " + g.tree(cols, depth-1) + ")"
}

// predEngine loads po, 1 500 rows with NULLs in every column but id, and
// pf, 3 000 rows referencing po by mk (some dangling, some NULL) with
// strings ps of their own, in another dictionary order. A third of each
// table stays in the delta.
func predEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New()
	nul := func(i, every int, v string) string {
		if i%every == 0 {
			return "null"
		}
		return v
	}
	poRow := func(i int) string {
		return strings.Join([]string{
			fmt.Sprint(i),
			nul(i, 7, fmt.Sprint(i%120-60)),
			nul(i, 5, fmt.Sprintf("%d.%02d", i%120-60, i*37%100)),
			nul(i, 6, fmt.Sprintf("%d.%d", i%90-45, i%10)),
			nul(i, 9, fmt.Sprint(19000+i%60)),
			nul(i, 4, []string{"true", "false"}[i%2]),
			nul(i, 8, fmt.Sprintf("'%s'", []string{"a", "b", "c", "d", "B", "zz"}[i*7%6])),
		}, ", ")
	}
	pfRow := func(i int) string {
		return fmt.Sprintf("%d, %s, %s", i, nul(i, 11, fmt.Sprint(i*13%1600)),
			nul(i, 10, fmt.Sprintf("'%s'", []string{"zz", "c", "B", "e", "b", "a"}[i%6])))
	}
	script := "create table po (id bigint primary key, i bigint, d decimal(10,2), f double, dt date, b bool, s varchar);\n" +
		"create table pf (id bigint primary key, mk bigint, ps varchar);\n" +
		insertScript("po", 1000, poRow) + "\n" + insertScript("pf", 2000, pfRow)
	if err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	delta := insertScript("po", 500, func(i int) string { return poRow(i + 1000) }) + "\n" +
		insertScript("pf", 1000, func(i int) string { return pfRow(i + 2000) })
	if err := e.ExecScript(delta); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestVecPredicateOracle diffs seeded random predicate trees — AND, OR
// and NOT over comparisons with every operator and literal kind, [NOT] IN
// lists with NULL elements, IS [NOT] NULL, col + 1 and upper(s) — between
// the batch executor (batch sizes 1024 and 7) and the row executor,
// before and after a delta merge, in three legs: a filtered scan; a
// union (planned without rewrites, so the filter stays above it) whose
// branches hand the filter a computed string, the branch constant, and
// strings of two dictionaries; and a left outer join of two tables whose
// filter reads only the build side and folds into the join's build.
func TestVecPredicateOracle(t *testing.T) {
	e := predEngine(t)
	g := &predGen{r: rand.New(rand.NewSource(20261017))}
	const n = 60
	all := []string{"i", "d", "f", "dt", "b", "s"}
	type query struct {
		sql  string
		prof core.Profile
	}
	var queries []query
	for k := 0; k < n; k++ {
		queries = append(queries,
			query{"select id, i, s from po where " + g.tree(all, 3), core.ProfileHANA},
			query{`select id, i, s from (select id, i, s from po union all select id, 3, 'b' from po
				union all select id, mk, ps from pf) u where ` + g.tree([]string{"i", "s"}, 3), core.ProfileNone},
			query{"select pf.id, po.id from pf left outer join po on pf.mk = po.id where (" + g.tree(all, 3) + ") or po.id is null", core.ProfileHANA})
	}
	folded := 0
	for k := 2; k < len(queries); k += 3 {
		out, err := e.ExplainAnalyze("", queries[k].sql)
		if err != nil {
			t.Fatalf("%q: %v", queries[k].sql, err)
		}
		if strings.Contains(out, "folded=") {
			folded++
		}
	}
	if folded < n/2 {
		t.Errorf("only %d of %d join-leg filters folded into the join's build", folded, n)
	}
	check := func(state string) {
		for _, q := range queries {
			ref := runMeta(t, e, q.sql, engine.Options{DisableVectorize: true}, q.prof)
			for _, size := range []int{1024, 7} {
				got := runMeta(t, e, q.sql, engine.Options{BatchSize: size}, q.prof)
				requireSameRows(t, fmt.Sprintf("%s/batch=%d", state, size), q.sql, ref, got)
			}
		}
	}
	check("pre-merge")
	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	check("post-merge")
}
