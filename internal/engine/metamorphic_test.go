package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"vdm/internal/core"
	"vdm/internal/engine"
)

// Metamorphic equivalence suite: a seeded random query generator over
// the TPC-H experiment schema, run across storage states that must not
// change query results. Delta merge moves rows between fragments,
// version GC compacts row positions, and the capability profiles change
// the plan — none of them may change what a query returns. Every
// generated query orders by all its plain output columns, so the full
// ordered row sequence is deterministic and comparable row by row
// (order-by ties can only occur between identical rows).

type genCol struct {
	name string
	// vals are literals that make selective but non-empty predicates.
	vals []string
}

type genTable struct {
	name string
	cols []genCol
}

// metaSchema describes the TPC-H tables the generator draws from.
// Deliberately no float columns: every comparison is exact.
func metaSchema() []genTable {
	return []genTable{
		{name: "customer", cols: []genCol{
			{name: "c_custkey", vals: []string{"5", "17", "30", "44"}},
			{name: "c_name", vals: nil},
			{name: "c_nationkey", vals: []string{"3", "11", "20"}},
			{name: "c_acctbal", vals: []string{"500.00", "2500.00", "7500.00"}},
			{name: "c_mktsegment", vals: []string{"'AUTOMOBILE'", "'BUILDING'", "'MACHINERY'"}},
		}},
		{name: "orders", cols: []genCol{
			{name: "o_orderkey", vals: []string{"20", "77", "150"}},
			{name: "o_custkey", vals: []string{"5", "25", "40"}},
			{name: "o_orderstatus", vals: []string{"'O'", "'F'", "'P'"}},
			{name: "o_totalprice", vals: []string{"400.00", "1200.00", "3000.00"}},
			{name: "o_orderpriority", vals: []string{"'1-URGENT'", "'3-MEDIUM'", "'5-LOW'"}},
		}},
		{name: "lineitem", cols: []genCol{
			{name: "l_orderkey", vals: []string{"33", "90", "160"}},
			{name: "l_linenumber", vals: []string{"1", "2", "3"}},
			{name: "l_partkey", vals: []string{"7", "19", "31"}},
			{name: "l_quantity", vals: []string{"10.00", "25.00", "40.00"}},
			{name: "l_extendedprice", vals: []string{"200.00", "900.00", "2000.00"}},
			{name: "l_discount", vals: []string{"0.02", "0.05", "0.08"}},
			{name: "l_returnflag", vals: []string{"'N'", "'R'", "'A'"}},
		}},
	}
}

// metaJoin is a generator-usable equi-join between two schema tables.
type metaJoin struct {
	left, right int // indexes into metaSchema
	cond        string
}

func metaJoins() []metaJoin {
	return []metaJoin{
		{left: 1, right: 0, cond: "o_custkey = c_custkey"},
		{left: 2, right: 1, cond: "l_orderkey = o_orderkey"},
	}
}

type queryGen struct {
	r      *rand.Rand
	tables []genTable
	joins  []metaJoin
}

func newQueryGen(seed int64) *queryGen {
	return &queryGen{r: rand.New(rand.NewSource(seed)), tables: metaSchema(), joins: metaJoins()}
}

// pickCols returns 1..n distinct columns of t in schema order.
func (g *queryGen) pickCols(t genTable) []genCol {
	var out []genCol
	for _, c := range t.cols {
		if g.r.Intn(2) == 0 {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, t.cols[g.r.Intn(len(t.cols))])
	}
	return out
}

// predicate builds a random WHERE conjunct over the given columns.
func (g *queryGen) predicate(cols []genCol) string {
	var conjs []string
	for _, c := range cols {
		if len(c.vals) == 0 || g.r.Intn(3) != 0 {
			continue
		}
		v := c.vals[g.r.Intn(len(c.vals))]
		op := []string{"=", "<>", "<", ">=", ">"}[g.r.Intn(5)]
		conjs = append(conjs, fmt.Sprintf("%s %s %s", c.name, op, v))
	}
	if len(conjs) == 0 {
		return ""
	}
	sep := " and "
	if g.r.Intn(4) == 0 {
		sep = " or "
	}
	return strings.Join(conjs, sep)
}

func colNames(cols []genCol) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}

// next generates one deterministic-output query.
func (g *queryGen) next() string {
	shape := g.r.Intn(10)
	switch {
	case shape < 4: // plain scan/filter/project
		t := g.tables[g.r.Intn(len(g.tables))]
		cols := g.pickCols(t)
		names := colNames(cols)
		q := fmt.Sprintf("select %s from %s", strings.Join(names, ", "), t.name)
		if w := g.predicate(t.cols); w != "" {
			q += " where " + w
		}
		q += " order by " + strings.Join(names, ", ")
		if g.r.Intn(3) == 0 {
			q += fmt.Sprintf(" limit %d", 5+g.r.Intn(40))
		}
		return q
	case shape < 7: // group by + aggregates
		t := g.tables[g.r.Intn(len(g.tables))]
		gcols := g.pickCols(t)
		if len(gcols) > 2 {
			gcols = gcols[:2]
		}
		names := colNames(gcols)
		aggCol := t.cols[g.r.Intn(len(t.cols))]
		aggs := []string{
			"count(*)",
			fmt.Sprintf("min(%s)", aggCol.name),
			fmt.Sprintf("max(%s)", aggCol.name),
			fmt.Sprintf("count(distinct %s)", aggCol.name),
		}
		agg := aggs[g.r.Intn(len(aggs))]
		q := fmt.Sprintf("select %s, %s from %s", strings.Join(names, ", "), agg, t.name)
		if w := g.predicate(t.cols); w != "" {
			q += " where " + w
		}
		q += " group by " + strings.Join(names, ", ")
		q += " order by " + strings.Join(names, ", ")
		return q
	default: // two-table join
		j := g.joins[g.r.Intn(len(g.joins))]
		lt, rt := g.tables[j.left], g.tables[j.right]
		cols := append(g.pickCols(lt), g.pickCols(rt)...)
		names := colNames(cols)
		q := fmt.Sprintf("select %s from %s inner join %s on %s",
			strings.Join(names, ", "), lt.name, rt.name, j.cond)
		if w := g.predicate(append(lt.cols, rt.cols...)); w != "" {
			q += " where " + w
		}
		q += " order by " + strings.Join(names, ", ")
		return q
	}
}

// runMeta runs one query under the given options/profile and returns
// the result.
func runMeta(t *testing.T, e *engine.Engine, sqlText string, o engine.Options, p core.Profile) *engine.Result {
	t.Helper()
	savedOpts, savedProf := e.Options(), e.Profile()
	e.SetOptions(o)
	e.SetProfile(p)
	defer func() {
		e.SetOptions(savedOpts)
		e.SetProfile(savedProf)
	}()
	res, err := e.Query(sqlText)
	if err != nil {
		t.Fatalf("query %q: %v", sqlText, err)
	}
	return res
}

// runRef runs sqlText on the row executor, the reference every
// differential test compares the batch executor against.
func runRef(t *testing.T, e *engine.Engine, sqlText string, p core.Profile) *engine.Result {
	t.Helper()
	engine.SetRowReference(e, true)
	defer engine.SetRowReference(e, false)
	return runMeta(t, e, sqlText, engine.Options{}, p)
}

func requireSameRows(t *testing.T, label, sqlText string, want, got *engine.Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %q: %d rows, want %d", label, sqlText, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !rowsEqual(want.Rows[i], got.Rows[i]) {
			t.Fatalf("%s: %q: row %d differs:\n  want: %s\n  got:  %s",
				label, sqlText, i, formatRow(want.Rows[i]), formatRow(got.Rows[i]))
		}
	}
}

// TestMetamorphicStorageStates generates seeded random queries and
// checks that every one returns identical ordered rows across
// {default batch, 7-row batch, governed} × {pre-merge, post-merge,
// post-GC} × capability
// profiles. The fixture starts with a populated delta and dead row
// versions (post-merge DML), so each storage transition really moves
// data.
func TestMetamorphicStorageStates(t *testing.T) {
	e := equivEngine(t)
	gen := newQueryGen(20250805)
	const numQueries = 40
	queries := make([]string, numQueries)
	for i := range queries {
		queries[i] = gen.next()
	}

	serial := engine.Options{}
	batch7 := engine.Options{BatchSize: 7}
	// Governance with generous limits must be invisible: the metering,
	// admission gate, and cancellation checkpoints may never change a
	// query's result.
	governed := engine.Options{
		BatchSize:            7,
		StatementTimeout:     time.Minute,
		MemoryBudget:         1 << 30,
		MaxConcurrentQueries: 8,
		QueueTimeout:         time.Minute,
	}
	profiles := []core.Profile{core.ProfilePostgres, core.ProfileNone}

	// Reference: serial execution, HANA profile, pre-merge state.
	ref := make([]*engine.Result, numQueries)
	for i, q := range queries {
		ref[i] = runMeta(t, e, q, serial, core.ProfileHANA)
	}

	check := func(state string) {
		t.Helper()
		for i, q := range queries {
			got := runMeta(t, e, q, serial, core.ProfileHANA)
			requireSameRows(t, state+"/serial", q, ref[i], got)
			got = runMeta(t, e, q, batch7, core.ProfileHANA)
			requireSameRows(t, state+"/batch7", q, ref[i], got)
			got = runMeta(t, e, q, governed, core.ProfileHANA)
			requireSameRows(t, state+"/governed", q, ref[i], got)
		}
		// Capability profiles change the plan, never the answer. One
		// execution mode suffices per profile — the batch-size axis is
		// covered above.
		for _, p := range profiles {
			for i, q := range queries {
				got := runMeta(t, e, q, batch7, p)
				requireSameRows(t, state+"/"+p.Name, q, ref[i], got)
			}
		}
	}

	check("pre-merge")

	if err := e.MergeAllDeltas(); err != nil {
		t.Fatal(err)
	}
	check("post-merge")

	removed, err := e.DB().Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("vacuum removed no versions; fixture should contain dead rows")
	}
	if v := metricValue(t, e, "storage.vacuumed_versions"); v <= 0 {
		t.Fatalf("storage.vacuumed_versions = %d after vacuum", v)
	}
	check("post-GC")
}

// TestMetamorphicUnderBackgroundMaintenance is the concurrent variant:
// AutoMerge and GC run on their own goroutine while a background writer
// commits continuously (insert-then-delete churn in a dedicated table,
// which leaves the queried tables' logical content untouched but keeps
// the commit clock, deltas, and dead-version population moving: every
// other inserted row is deleted, so a third of the table's stored
// versions are dead — well past the 1/8 line at which background GC
// compacts). Every
// query result must stay bit-identical to the quiescent reference, and
// the maintenance counters must show merges and GC actually happened
// mid-flight.
func TestMetamorphicUnderBackgroundMaintenance(t *testing.T) {
	e := equivEngine(t)
	defer e.Close()
	if err := e.Exec(`create table churn (id bigint primary key, val bigint)`); err != nil {
		t.Fatal(err)
	}

	gen := newQueryGen(42)
	const numQueries = 12
	queries := make([]string, numQueries)
	for i := range queries {
		queries[i] = gen.next()
	}
	serial := engine.Options{}
	ref := make([]*engine.Result, numQueries)
	for i, q := range queries {
		ref[i] = runMeta(t, e, q, serial, core.ProfileHANA)
	}

	// Enable background maintenance: aggressive thresholds so merges and
	// GC run many times within the test window.
	e.SetOptions(engine.Options{
		BatchSize:      5,
		AutoMerge:      true,
		MergeThreshold: 16,
		GCInterval:     2 * time.Millisecond,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Exec(fmt.Sprintf("insert into churn values (%d, %d)", i, i*7)); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
			if i%2 == 0 {
				if err := e.Exec(fmt.Sprintf("delete from churn where id = %d", i)); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
			}
		}
	}()

	// Query with the engine's current (5-row batch + maintenance) options
	// directly — runMeta's SetOptions save/restore would stop and
	// restart the maintenance goroutine around every query, resetting
	// its ticker before it could ever fire.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i, q := range queries {
			got, err := e.Query(q)
			if err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
			requireSameRows(t, "concurrent", q, ref[i], got)
		}
	}
	close(stop)
	wg.Wait()
	e.Close()

	if v := metricValue(t, e, "storage.auto_merges"); v == 0 {
		t.Error("storage.auto_merges = 0; background merges did not run")
	}
	if v := metricValue(t, e, "storage.vacuumed_versions"); v == 0 {
		t.Error("storage.vacuumed_versions = 0; background GC reclaimed nothing")
	}
	// GC ran in batches: each compaction reclaimed at least an eighth of
	// the versions the table then stored, never one version per tick.
	if passes := metricValue(t, e, "storage.vacuums"); passes > 0 {
		if per := metricValue(t, e, "storage.vacuumed_versions") / passes; per < 2 {
			t.Errorf("background GC reclaimed %d versions per compaction; the amortization line is not holding", per)
		}
	}
	// Final sanity pass on the quiescent engine: post-merge, post-GC
	// results remain bit-identical to the pre-maintenance reference.
	e.SetOptions(serial)
	for i, q := range queries {
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		requireSameRows(t, "post-maintenance", q, ref[i], got)
	}
}
