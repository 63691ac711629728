package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"vdm/internal/bind"
	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/exec"
	"vdm/internal/plan"
	"vdm/internal/s4"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// readUser is the session user of every VDM statement: the browser's
// DAC policies are injected for it, as for any S/4 end user.
const readUser = "user"

// A stmt is one statement class of a read round. The text is assembled
// from three parts so that vdm_plan can splice a seed-derived literal
// into the WHERE clause — a predicate that is true for every row, so the
// result (and the oracle digest) is that of the plain statement while
// the text, and therefore the plan-cache key, is new.
type stmt struct {
	name  string
	head  string // select … from …
	where string // existing predicate, "" for none
	tail  string // group by / order by / limit
	// taut is a column that is never null and never negative, so
	// `taut > -k` holds for every k > 0.
	taut string
	// page > 0 marks a LIMIT without ORDER BY, whose tail is the paging
	// clause and whose result is any page rows of the unpaged statement
	// (fewer when offset leaves fewer).
	page, offset int
}

// text renders the statement; k > 0 adds the always-true predicate.
func (s stmt) text(k int64) string {
	w := s.where
	if k > 0 {
		t := fmt.Sprintf("%s > -%d", s.taut, k)
		if w == "" {
			w = t
		} else {
			w += " and " + t
		}
	}
	q := s.head
	if w != "" {
		q += " where " + w
	}
	return q + s.tail
}

// vdmStatements is the fixed script of a vdm_read / vdm_plan round: the
// paper's anchor shapes over the 57-join JournalEntryItemBrowser and the
// Figure 14 Active/Draft consumption views.
var vdmStatements = []stmt{
	{name: "count_star", taut: "gjahr", // Figure 4
		head: "select count(*) from JournalEntryItemBrowser"},
	{name: "narrow_page", taut: "gjahr", // Figure 6: 7 of 66 columns, one page
		head: "select rbukrs, gjahr, belnr, docln, hsl, sup_name1, cus_name1 from JournalEntryItemBrowser",
		tail: " limit 100 offset 200", page: 100, offset: 200},
	{name: "group_by", taut: "gjahr",
		head: "select rbukrs, company_name, sum(hsl) total, count(*) n from JournalEntryItemBrowser",
		tail: " group by rbukrs, company_name order by rbukrs, company_name"},
	{name: "filtered_agg", taut: "gjahr", where: "gjahr = 2023",
		head: "select cty_landx, sum(hsl) total, count(*) n from JournalEntryItemBrowser",
		tail: " group by cty_landx order by cty_landx"},
	{name: "topk", taut: "gjahr",
		head: "select belnr, docln, hsl, cus_name1 from JournalEntryItemBrowser",
		tail: " order by hsl desc, belnr, docln limit 50"},
	{name: "casejoin_page", taut: "id", // Figure 14, CASE JOIN extension
		head: "select * from C_Document001XC", tail: " limit 10", page: 10},
	{name: "union_page", taut: "id", // Figure 14, plain Active/Draft union
		head: "select * from C_Document003", tail: " limit 10", page: 10},
}

// selectStar is Figure 3's statement. It is some 3× a whole round at the
// vdm_read size, so it runs in the traced phase only.
var selectStar = stmt{name: "select_star", taut: "gjahr",
	head: "select * from JournalEntryItemBrowser", tail: " limit 100", page: 100}

// rowDigest folds one row into 64 bits.
func rowDigest(row types.Row) uint64 {
	h := fnv.New64a()
	for _, v := range row {
		h.Write([]byte(v.String()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// An oracle is what a statement class must return, computed in set-up
// from the unoptimized (ProfileNone) plan: the paper's rewrites are
// semantics-preserving, so whatever the optimizer and the executor do to
// a statement, its rows must be those of the plan as bound.
//
// A statement with a total order (or one row) must reproduce the rows in
// order. A LIMIT without ORDER BY may legally return any page of the
// unpaged result — the optimizer's build-side choice reorders it — so it
// must return exactly page rows, each drawn from that result.
type oracle struct {
	ordered []uint64       // row digests in order; nil for a paged statement
	members map[uint64]int // unpaged result as a multiset of row digests
	page    int
}

// newOracle derives a statement's oracle from src, the engine holding
// its reference result.
func newOracle(src *engine.Engine, user string, s stmt) (*oracle, error) {
	text := s.text(0)
	if s.page > 0 {
		text = s.head // no statement of the round pages under a WHERE
	}
	_, res, err := runUnoptimized(src, user, text)
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	if s.page > 0 {
		o.page = max(0, min(s.page, len(res.Rows)-s.offset))
		o.members = make(map[uint64]int, len(res.Rows))
		for _, row := range res.Rows {
			o.members[rowDigest(row)]++
		}
		return o, nil
	}
	for _, row := range res.Rows {
		o.ordered = append(o.ordered, rowDigest(row))
	}
	return o, nil
}

// runUnoptimized runs a statement under ProfileNone: every rewrite off,
// the executor's batch kernels on (the 57-join plan as bound needs them
// to finish a 20 000-line fixture in set-up time).
func runUnoptimized(e *engine.Engine, user, text string) (*plan.Plan, *engine.Result, error) {
	saved := e.Profile()
	e.SetProfile(core.ProfileNone)
	p, err := e.PlanQuery(user, text, true)
	e.SetProfile(saved)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run(p)
	return p, res, err
}

const browser = "JournalEntryItemBrowser"

// browserCols are the browser columns the round's statements touch.
var browserCols = []string{"rbukrs", "gjahr", "belnr", "docln", "hsl",
	"company_name", "cty_landx", "sup_name1", "cus_name1"}

// flattenBrowser unfolds the browser view once, as bound, for the
// session user, and loads the rows into a plain table of the same name
// in a scratch engine. The round's browser statements run verbatim
// against that table to give their oracles, so set-up pays for the
// unoptimized 57-join plan once and not once per statement class.
func flattenBrowser(e *engine.Engine) (*engine.Engine, error) {
	text := "select " + strings.Join(browserCols, ", ") + " from " + browser
	p, res, err := runUnoptimized(e, readUser, text)
	if err != nil {
		return nil, err
	}
	var schema types.Schema
	for i, id := range p.Root.Columns() {
		schema = append(schema, types.Column{Name: p.OutNames[i], Type: p.Ctx.Type(id)})
	}
	flat := engine.New()
	if _, err := flat.DB().CreateTable(browser, schema); err != nil {
		return nil, err
	}
	if err := flat.DB().InsertRows(browser, res.Rows); err != nil {
		return nil, err
	}
	return flat, nil
}

// check returns "" when res satisfies the oracle.
func (o *oracle) check(res *engine.Result) string {
	if o.members == nil {
		if len(res.Rows) != len(o.ordered) {
			return fmt.Sprintf("%d rows, oracle has %d", len(res.Rows), len(o.ordered))
		}
		for i, row := range res.Rows {
			if rowDigest(row) != o.ordered[i] {
				return fmt.Sprintf("row %d differs from the oracle", i)
			}
		}
		return ""
	}
	if len(res.Rows) != o.page {
		return fmt.Sprintf("page of %d rows, want %d", len(res.Rows), o.page)
	}
	seen := make(map[uint64]int, len(res.Rows))
	for i, row := range res.Rows {
		d := rowDigest(row)
		if seen[d]++; seen[d] > o.members[d] {
			return fmt.Sprintf("row %d is not a row of the unpaged result", i)
		}
	}
	return ""
}

// readFixture is a loaded VDM engine plus the oracles of its round.
type readFixture struct {
	e     *engine.Engine
	stmts []stmt
	want  []*oracle
}

// fig14Size is the Figure 14 population of vdm_read: Fig14Full's rows,
// twelve views (the round only queries two of them).
func fig14Size(tiny bool) s4.Fig14Size {
	if tiny {
		return s4.Fig14Tiny()
	}
	return s4.Fig14Size{ActiveRows: 20000, DraftRows: 200, Views: 12}
}

// setupVDM opens an engine, loads the S/4 fixture and the Figure 14
// views, computes the oracles and runs the discarded warm-up rounds
// (with fresh texts numbered from uniq, when uniq > 0).
func setupVDM(tiny bool, warmup int, uniq int64) (*readFixture, error) {
	e := engine.New()
	size := s4.BenchSize()
	if tiny {
		size = s4.TinySize()
	}
	if err := s4.Setup(e, size); err != nil {
		return nil, err
	}
	if err := s4.SetupFig14(e, fig14Size(tiny)); err != nil {
		return nil, err
	}
	if err := e.MergeAllDeltas(); err != nil {
		return nil, err
	}
	e.EnablePlanCache(true)
	fx := &readFixture{e: e, stmts: vdmStatements}
	flat, err := flattenBrowser(e)
	if err != nil {
		return nil, fmt.Errorf("oracle baseline: %w", err)
	}
	for _, s := range fx.stmts {
		src, user := e, readUser
		if strings.Contains(s.head, browser) {
			src, user = flat, ""
		}
		o, err := newOracle(src, user, s)
		if err != nil {
			return nil, fmt.Errorf("oracle baseline %s: %w", s.name, err)
		}
		fx.want = append(fx.want, o)
	}
	for r := 0; r < warmup; r++ {
		base := uniq
		if uniq > 0 {
			base += int64(r) * 8
		}
		if _, msg := fx.round(fx.texts(base), true); msg != "" {
			return nil, fmt.Errorf("warm-up round %d: %s", r, msg)
		}
	}
	return fx, nil
}

// texts renders one round's statements. base 0 gives the plain,
// plan-cache-friendly texts; base > 0 gives texts nobody has sent
// before, numbered from base.
func (fx *readFixture) texts(base int64) []string {
	out := make([]string, len(fx.stmts))
	for i, s := range fx.stmts {
		k := int64(0)
		if base > 0 {
			k = base + int64(i)
		}
		out[i] = s.text(k)
	}
	return out
}

// round runs one round through the engine's front door and returns its
// latency; only the QueryAs calls are timed. With check set, the results
// are then checked against the oracles; msg names the first failure.
func (fx *readFixture) round(texts []string, check bool) (lat time.Duration, msg string) {
	results := make([]*engine.Result, len(texts))
	t0 := time.Now()
	for i, q := range texts {
		res, err := fx.e.QueryAs(readUser, q)
		if err != nil {
			return time.Since(t0), fmt.Sprintf("%s: %v", fx.stmts[i].name, err)
		}
		results[i] = res
	}
	lat = time.Since(t0)
	if check {
		for i, res := range results {
			if msg := fx.want[i].check(res); msg != "" {
				return lat, fx.stmts[i].name + ": " + msg
			}
		}
	}
	return lat, ""
}

// stageCounts are the exact counts one staged statement produces.
type stageCounts struct {
	joinsIn, joinsOut, rowsOut int
}

// staged runs one statement through the layers' own exported entry
// points — the calls Engine.QueryAs makes internally, minus the plan
// cache — with a span around each. A nil recorder runs the same calls
// unrecorded.
func staged(rec *recorder, parent, round int, e *engine.Engine, em *exec.Metrics, user, text string) (stageCounts, error) {
	var c stageCounts
	id := rec.begin("engine.stmt", parent, round)
	defer rec.end(id)

	s := rec.begin("sql.parse", id, round)
	body, err := sql.ParseQuery(text)
	rec.end(s)
	if err != nil {
		return c, err
	}

	s = rec.begin("bind.bind", id, round)
	p, err := bind.New(e.Catalog(), user).BindQuery(body)
	rec.end(s)
	if err != nil {
		return c, err
	}

	s = rec.begin("core.optimize", id, round)
	opt := core.NewOptimizer(p.Ctx, e.Profile())
	opt.SetCosting(e.CostingEnabled())
	root := opt.Optimize(p.Root)
	rec.end(s)
	rep := opt.Report()
	c.joinsIn, c.joinsOut = rep.Before.Joins, rep.After.Joins

	lease := e.DB().AcquireRead()
	defer lease.Release()

	s = rec.begin("exec.build", id, round)
	b := exec.NewBuilder(p.Ctx, e.DB(), lease.TS())
	b.SetVectorize(e.Options().BatchSize)
	b.SetMetrics(em)
	b.SetGovernance(exec.NewGovernance(context.Background(), e.Options().MemoryBudget, nil))
	it, err := b.Build(root)
	rec.end(s)
	if err != nil {
		return c, err
	}
	defer it.Close()

	s = rec.begin("exec.open", id, round)
	err = it.Open()
	rec.end(s)
	if err != nil {
		return c, err
	}

	s = rec.begin("exec.drain", id, round)
	defer rec.end(s)
	for {
		_, ok, err := it.Next()
		if err != nil {
			return c, err
		}
		if !ok {
			return c, nil
		}
		c.rowsOut++
	}
}
