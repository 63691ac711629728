package engine_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vdm/internal/engine"
	"vdm/internal/experiments"
	"vdm/internal/s4"
	"vdm/internal/sql"
)

// literalVariants returns n texts of q's statement with its number and
// string literals redrawn — negatives, zero, decimals of the same and of
// another scale, strings with quotes or spelling a slot, and the
// statement's own other strings — keeping LIMIT and OFFSET operands.
func literalVariants(t *testing.T, r *rand.Rand, q string, n int) []string {
	t.Helper()
	toks, err := sql.LexAll(q)
	if err != nil {
		t.Fatal(err)
	}
	src := []rune(q)
	type span struct {
		start, end int
		tok        sql.Token
		neg        bool // a number under a unary minus, which the span holds
	}
	var spans []span
	var strs []string
	for i, tok := range toks {
		switch tok.Kind {
		case sql.TokNumber:
			if i > 0 && (toks[i-1].Upper == "LIMIT" || toks[i-1].Upper == "OFFSET") {
				continue
			}
			sp := span{tok.Pos, tok.Pos + len([]rune(tok.Text)), tok, false}
			// A minus after an operator is the literal's sign: redrawing
			// the number alone could write "--", which starts a comment.
			if i > 1 && toks[i-1].Kind == sql.TokOp && toks[i-1].Text == "-" &&
				toks[i-2].Kind == sql.TokOp && toks[i-2].Text != ")" {
				sp.start, sp.neg = toks[i-1].Pos, true
			}
			spans = append(spans, sp)
		case sql.TokString:
			end := tok.Pos + 1
			for end < len(src) && !(src[end] == '\'' && (end+1 == len(src) || src[end+1] != '\'')) {
				if src[end] == '\'' {
					end++ // a doubled quote
				}
				end++
			}
			spans = append(spans, span{tok.Pos, end + 1, tok, false})
			strs = append(strs, tok.Text)
		}
	}
	redraw := func(s span) string {
		tok := s.tok
		if tok.Kind == sql.TokString {
			pool := append([]string{tok.Text, "it's", "$1", tok.Text + "x", ""}, strs...)
			return "'" + strings.ReplaceAll(pool[r.Intn(len(pool))], "'", "''") + "'"
		}
		if dot := strings.IndexByte(tok.Text, '.'); dot >= 0 {
			scale := len(tok.Text) - dot - 1
			if r.Intn(5) == 0 {
				scale++ // another scale: another shape
			}
			whole := []int{0, 1, 3, 100, 250, 2500, 9000}[r.Intn(7)]
			frac := fmt.Sprintf("%0*d", scale, r.Intn(10))
			sign := ""
			if r.Intn(3) == 0 {
				sign = "-"
			}
			return fmt.Sprintf("%s%d.%s", sign, whole, frac[len(frac)-scale:])
		}
		var orig int
		fmt.Sscan(tok.Text, &orig)
		if s.neg {
			orig = -orig
		}
		return fmt.Sprint([]int{orig, orig + 1, 0, -(orig + 3), r.Intn(60) - 20, 2 * orig}[r.Intn(6)])
	}
	var out []string
	for range n {
		var b strings.Builder
		last := 0
		for _, s := range spans {
			b.WriteString(string(src[last:s.start]))
			b.WriteString(redraw(s))
			last = s.end
		}
		b.WriteString(string(src[last:]))
		out = append(out, b.String())
	}
	return out
}

// trailingPage matches a statement's closing LIMIT, with its OFFSET.
var trailingPage = regexp.MustCompile(`(?i)\s+limit\s+\d+(\s+offset\s+\d+)?\s*$`)

// totalOrder names the statements whose ORDER BY is total on the
// fixture, so a page of them has one right answer.
var totalOrder = map[string]bool{"topk": true, "topk_cut": true}

// sameResult compares two outcomes of one statement: both errors, or the
// same rows. A statement with a total ORDER BY must return the same rows
// in the same order. Others compare as multisets, since a template and a
// fresh plan may differ in cost decisions that reorder rows; and a page
// of such a statement may hold other rows of the same sort position, so
// each of its rows must instead be one the fresh plan returns without
// the page (unpaged), and no more often.
func sameResult(name string, a, b, unpaged *engine.Result, errA, errB error) string {
	if (errA != nil) != (errB != nil) {
		return fmt.Sprintf("cached error %v, fresh error %v", errA, errB)
	}
	if errA != nil {
		return ""
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("cached %d rows, fresh %d", len(a.Rows), len(b.Rows))
	}
	if totalOrder[name] {
		for i := range a.Rows {
			if ra, rb := formatRow(a.Rows[i]), formatRow(b.Rows[i]); ra != rb {
				return fmt.Sprintf("row %d: cached %s, fresh %s", i, ra, rb)
			}
		}
		return ""
	}
	if unpaged != nil {
		left := map[string]int{}
		for _, row := range unpaged.Rows {
			left[formatRow(row)]++
		}
		for i, row := range a.Rows {
			r := formatRow(row)
			if left[r] == 0 {
				return fmt.Sprintf("paged row %d: cached %s is not a row of the unpaged statement", i, r)
			}
			left[r]--
		}
		return ""
	}
	sorted := func(res *engine.Result) []string {
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = formatRow(row)
		}
		sort.Strings(out)
		return out
	}
	sa, sb := sorted(a), sorted(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return fmt.Sprintf("row %d: cached %s, fresh %s", i, sa[i], sb[i])
		}
	}
	return ""
}

// checkTemplates runs every statement warm, then its literal variants,
// through the plan cache — the variants that keep the statement's shape
// instantiate its template — and again with the cache off, planning
// each variant fresh, and requires the same results. It returns the
// number of variants served by instantiating a template.
func checkTemplates(t *testing.T, e *engine.Engine, user string, suite []experiments.NamedQuery, seed int64) (instantiated int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	defer e.EnablePlanCache(false)
	for _, q := range suite {
		variants := literalVariants(t, r, q.SQL, 4)
		e.EnablePlanCache(true)
		if _, err := e.QueryAs(user, q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		type outcome struct {
			res *engine.Result
			err error
		}
		cached := make([]outcome, len(variants))
		for i, v := range variants {
			cached[i].res, cached[i].err = e.QueryAs(user, v)
		}
		instantiated += metricValue(t, e, "plancache.template_hits")
		e.EnablePlanCache(false)
		for i, v := range variants {
			res, err := e.QueryAs(user, v)
			if err != nil {
				t.Fatalf("%s: variant %q: %v", q.Name, v, err)
			}
			var unpaged *engine.Result
			if loc := trailingPage.FindStringIndex(v); loc != nil {
				if unpaged, err = e.QueryAs(user, v[:loc[0]]); err != nil {
					t.Fatalf("%s: unpaged: %v", q.Name, err)
				}
			}
			if msg := sameResult(q.Name, cached[i].res, res, unpaged, cached[i].err, err); msg != "" {
				t.Errorf("%s: %s\n  template: %s\n  variant:  %s", q.Name, msg, q.SQL, v)
			}
		}
	}
	return instantiated
}

// templateEngine is the tiny S/4 fixture with the Figure 14 views and
// an augmenter view filtered on a constant.
func templateEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New()
	if err := s4.Setup(e, s4.TinySize()); err != nil {
		t.Fatal(err)
	}
	if err := s4.SetupFig14(e, s4.Fig14Tiny()); err != nil {
		t.Fatal(err)
	}
	// An augmenter whose filter is the view's constant: a statement's
	// equal literal must match it by value.
	if err := e.Exec(`create view eur_notes as select id, note from doc_active where currency = 'EUR'`); err != nil {
		t.Fatal(err)
	}
	return e
}

// templateShapes are the template oracle's S/4 and Figure 14 statements:
// the seven vdm_read shapes with literals, and shapes whose literals
// decide a rewrite.
func templateShapes() []experiments.NamedQuery {
	return []experiments.NamedQuery{
		{Name: "count_star", SQL: `select count(*) from JournalEntryItemBrowser where gjahr > -5`},
		{Name: "narrow_page", SQL: `select rbukrs, gjahr, belnr, docln, hsl, sup_name1, cus_name1 from JournalEntryItemBrowser where gjahr > -7 limit 100 offset 200`},
		{Name: "group_by", SQL: `select rbukrs, company_name, sum(hsl) total, count(*) n from JournalEntryItemBrowser where gjahr > -9 group by rbukrs, company_name order by rbukrs, company_name`},
		{Name: "filtered_agg", SQL: `select cty_landx, sum(hsl) total, count(*) n from JournalEntryItemBrowser where gjahr = 2023 and hsl > 12.50 group by cty_landx order by cty_landx`},
		{Name: "topk", SQL: `select belnr, docln, hsl, cus_name1 from JournalEntryItemBrowser where cus_land1 in ('DE', 'US') order by hsl desc, belnr, docln limit 50`},
		{Name: "casejoin_page", SQL: `select * from C_Document001XC where id > -11 limit 10`},
		{Name: "union_page", SQL: `select * from C_Document003 where id > -13 limit 10`},
		// The pages again, filtered where literals cut the fixture: a stale
		// literal in an instantiated page shows as a row the page's
		// statement does not return.
		{Name: "narrow_page_cut", SQL: `select rbukrs, gjahr, belnr, docln, hsl, sup_name1, cus_name1 from JournalEntryItemBrowser where hsl > 100.00 limit 20 offset 10`},
		{Name: "topk_cut", SQL: `select belnr, docln, hsl, cus_name1 from JournalEntryItemBrowser where hsl < 2500.00 order by hsl desc, belnr, docln limit 20`},
		{Name: "casejoin_page_cut", SQL: `select * from C_Document001XC where id > 5 limit 10`},
		{Name: "union_page_cut", SQL: `select * from C_Document003 where id > 5 limit 10`},
		{Name: "fig14-branch-prune", SQL: `select bid, id, amount from C_Document003 where bid = 2 and amount > 100.00`},
		{Name: "fig14-branch-in", SQL: `select bid, count(*) from C_Document004X where bid in (1, 3) group by bid`},
		{Name: "user-union-branch", SQL: `select bid, id from (select 1 bid, id, amount from doc_active union all select 2 bid, id, amount from doc_draft) u where bid = 1 and amount >= 10.00`},
		{Name: "contradictory-range", SQL: `select count(*) from doc_active where qty > 5 and qty < 3`},
		{Name: "quoted-strings", SQL: `select count(*) from doc_active where status = 'it''s' or currency = 'EUR'`},
		{Name: "negatives", SQL: `select id from doc_draft where qty > -3 and amount > -1.50`},
		{Name: "asj-view-predicate", SQL: `select a.id, n.note from doc_active a left outer join eur_notes n on a.id = n.id where a.currency = 'EUR'`},
		{Name: "disjoint-ranges", SQL: `select o.id from doc_active o left outer join (
			select id, amount from doc_active where amount < 100.00
			union all
			select id, amount from doc_active where amount >= 100.00) u on o.id = u.id`},
	}
}

// TestPlanTemplateEquivalence is the oracle of the literal-lifted plan
// cache: a template instantiated with another statement's literals must
// return what planning that statement afresh returns. It covers the
// seven vdm_read shapes over the S/4 browser and the Figure 14 views,
// literals that flip union-branch pruning and union-disjointness keys,
// contradictory ranges, and the TPC-H battery with the UAJ, ASJ and
// Union UAJ suites.
func TestPlanTemplateEquivalence(t *testing.T) {
	e := templateEngine(t)
	n := checkTemplates(t, e, "user", templateShapes(), 30)

	suite := equivQueries()
	suite = append(suite, experiments.UAJQueries()...)
	suite = append(suite, experiments.ASJQueries()...)
	suite = append(suite, experiments.UnionUAJQueries()...)
	suite = append(suite, experiments.ASJNegativeQuery(), experiments.ASJUnionAnchorQuery(),
		experiments.CaseJoinQuery(false), experiments.CaseJoinQuery(true))
	n += checkTemplates(t, equivEngine(t), "", suite, 31)
	t.Logf("%d variants instantiated a template", n)
	if n < 40 {
		t.Errorf("only %d variants instantiated a template: the oracle is not exercising templates", n)
	}
}
