package core

import (
	"fmt"
	"strings"

	"vdm/internal/plan"
)

// TraceEvent records one rewrite application: which rule fired, during
// which fixpoint pass, what operator it matched, and its effect on the
// plan (most importantly the number of joins it removed — the measure
// the paper's Tables 1–4 are scored in).
type TraceEvent struct {
	// Pass is the 1-based fixpoint pass during which the rule fired.
	Pass int
	// Rule is the rule name, e.g. "uaj-elim" or "limit-across-aj".
	Rule string
	// Operator describes the matched operator (one plan line), e.g.
	// "LeftOuterJoin on o_custkey = c_custkey". Empty for rules logged
	// without an operator.
	Operator string
	// JoinsRemoved is the number of join operators the rewrite deleted
	// from the plan (the matched join plus any joins inside the dropped
	// augmenter subtree). Zero for non-eliminating rules.
	JoinsRemoved int
	// Detail is a human-readable note on what the rule did.
	Detail string
}

// String renders the event as one trace line.
func (e TraceEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pass %d: %s", e.Pass, e.Rule)
	if e.Operator != "" {
		fmt.Fprintf(&b, " @ %s", e.Operator)
	}
	if e.JoinsRemoved > 0 {
		fmt.Fprintf(&b, " (-%d join", e.JoinsRemoved)
		if e.JoinsRemoved > 1 {
			b.WriteByte('s')
		}
		b.WriteByte(')')
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " — %s", e.Detail)
	}
	return b.String()
}

// SkippedRule names a rewrite the active profile could not attempt
// because it lacks the required capability — the "what would HANA have
// done here" half of a cross-profile trace diff.
type SkippedRule struct {
	Rule       string
	Capability string
}

// Trace is the full optimizer report for one query: plan census before
// and after, every rule application in order, and the rules the profile
// skipped for lack of capabilities.
type Trace struct {
	// Profile is the capability profile the optimizer ran under.
	Profile string
	// Before and After are operator censuses of the plan at entry to and
	// exit from Optimize (e.g. Figure 4's 49 joins collapsing to 2).
	Before, After plan.Stats
	// Passes is the number of fixpoint passes executed.
	Passes int
	// Derived counts the derived facts the passes computed: a node's
	// column set or logical properties, each computed once per node until
	// a rewrite at or below the node invalidates it.
	Derived int
	// Events lists every rule application in firing order.
	Events []TraceEvent
	// Skipped lists rules unavailable under this profile.
	Skipped []SkippedRule
}

// Fired reports whether the named rule fired at least once.
func (t *Trace) Fired(rule string) bool { return t.Count(rule) > 0 }

// Count returns how many times the named rule fired.
func (t *Trace) Count(rule string) int {
	n := 0
	for _, e := range t.Events {
		if e.Rule == rule {
			n++
		}
	}
	return n
}

// JoinsRemovedBy sums JoinsRemoved over all firings of the named rule
// (all rules when rule is empty).
func (t *Trace) JoinsRemovedBy(rule string) int {
	n := 0
	for _, e := range t.Events {
		if rule == "" || e.Rule == rule {
			n += e.JoinsRemoved
		}
	}
	return n
}

// WasSkipped reports whether the named rule appears in the skipped list.
func (t *Trace) WasSkipped(rule string) bool {
	for _, s := range t.Skipped {
		if s.Rule == rule {
			return true
		}
	}
	return false
}

// String renders the full trace report.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %s\n", t.Profile)
	fmt.Fprintf(&b, "plan before: %s\n", t.Before)
	fmt.Fprintf(&b, "plan after:  %s\n", t.After)
	fmt.Fprintf(&b, "passes: %d  derived: %d\n", t.Passes, t.Derived)
	if len(t.Events) == 0 {
		b.WriteString("fired: (none)\n")
	} else {
		fmt.Fprintf(&b, "fired (%d):\n", len(t.Events))
		for _, e := range t.Events {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	if len(t.Skipped) > 0 {
		fmt.Fprintf(&b, "skipped (capability not in profile):\n")
		for _, s := range t.Skipped {
			fmt.Fprintf(&b, "  %s — requires %s\n", s.Rule, s.Capability)
		}
	}
	return b.String()
}

// capRules ties each capability bit to a short name and the trace rule
// names it enables. It drives both Capability.String and the skipped-
// rule report: a profile missing a bit is reported as skipping the
// associated rules.
var capRules = []struct {
	cap   Capability
	name  string
	rules []string
}{
	{CapColumnPrune, "column-prune", []string{"prune-scan", "prune-project", "prune-aggs", "prune-values", "prune-union"}},
	{CapFilterPushdown, "filter-pushdown", []string{"filter-merge", "filter-through-project", "filter-through-join", "filter-through-union", "filter-through-groupby", "filter-through-sort", "filter-through-distinct"}},
	{CapUAJUniqueKey, "uaj-unique-key", []string{"uaj-elim"}},
	{CapUAJGroupBy, "uaj-group-by", []string{"uaj-elim"}},
	{CapUAJConstFilter, "uaj-const-filter", []string{"uaj-elim"}},
	{CapUAJThroughJoin, "uaj-through-join", []string{"uaj-elim"}},
	{CapUAJOrderByLimit, "uaj-order-by-limit", []string{"uaj-elim"}},
	{CapUAJInnerFK, "uaj-inner-fk", []string{"uaj-elim"}},
	{CapJoinCardSpec, "join-card-spec", []string{"uaj-elim"}},
	{CapLimitPushdown, "limit-pushdown", []string{"limit-across-aj", "limit-through-project", "limit-merge", "limit-into-union"}},
	{CapASJ, "asj", []string{"asj-elim"}},
	{CapASJSubquery, "asj-subquery", []string{"asj-elim"}},
	{CapASJFilter, "asj-filter", []string{"asj-elim"}},
	{CapUAJUnionDisjoint, "union-key-disjoint", []string{"uaj-elim"}},
	{CapUAJUnionBranch, "union-key-branch", []string{"uaj-elim"}},
	{CapASJUnionAnchor, "asj-union-anchor", []string{"asj-union-anchor-elim"}},
	// CASE JOIN subsumes the pristine-pattern auto recognizer: a system
	// with the annotation covers the Union-All ASJ pattern even though
	// the unannotated heuristic never runs, so a case-join profile is
	// not reported as skipping asj-union-auto-elim.
	{CapCaseJoin, "case-join", []string{"asj-case-join-elim", "asj-union-auto-elim"}},
	{CapASJUnionAuto, "asj-union-auto", []string{"asj-union-auto-elim"}},
	{CapDistinctElim, "distinct-elim", []string{"distinct-elim"}},
	{CapOuterToInner, "outer-to-inner", []string{"outer-to-inner"}},
	{CapPrecisionLoss, "precision-loss", []string{"apl-round-interchange"}},
	{CapEagerAgg, "eager-agg", []string{"eager-agg-across-aj"}},
}

// String names the set capability bits, e.g. "asj|case-join".
func (c Capability) String() string {
	if c == 0 {
		return "none"
	}
	var names []string
	rest := c
	for _, cr := range capRules {
		if c.Has(cr.cap) {
			names = append(names, cr.name)
			rest &^= cr.cap
		}
	}
	if rest != 0 {
		names = append(names, fmt.Sprintf("0x%x", uint32(rest)))
	}
	return strings.Join(names, "|")
}

// skippedFor lists the rules the given capability set cannot run. A
// rule enabled by several capabilities (uaj-elim) is reported only when
// every enabling capability is absent — if any variant can fire, the
// rule is live under the profile.
func skippedFor(caps Capability) []SkippedRule {
	live := map[string]bool{}
	missing := map[string]Capability{}
	var order []string
	for _, cr := range capRules {
		for _, r := range cr.rules {
			if caps.Has(cr.cap) {
				live[r] = true
			} else if _, seen := missing[r]; !seen {
				missing[r] = cr.cap
				order = append(order, r)
			} else {
				missing[r] |= cr.cap
			}
		}
	}
	var out []SkippedRule
	for _, r := range order {
		if !live[r] {
			out = append(out, SkippedRule{Rule: r, Capability: missing[r].String()})
		}
	}
	return out
}
