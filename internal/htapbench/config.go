// Package htapbench is a CH-benCHmark-style mixed-workload harness over
// the engine: fleets of OLTP writer sessions (inserts, draft/activate
// flows, deletes that force delta merges and vacuums) run against
// concurrent analytical reader sessions issuing VDM consumption-view
// aggregates, expression-filter scans, and ORDER BY+LIMIT paging — all
// on one Active/Draft document fixture with a transactionally
// maintained ledger, under the engine's governance (timeouts, memory
// budgets, admission) and background maintenance (auto-merge, version
// GC).
//
// The harness is a test oracle, not just a load generator. Every
// session's operation stream derives deterministically from a single
// seed, each run emits a schedule log that replays exactly
// (Harness.Replay), and online invariant checkers assert:
//
//   - snapshot consistency — a reader pinned at watermark W sees row-
//     and order-identical results before, during, and after delta
//     merges and vacuums (via engine.QueryPinned);
//   - monotonic freshness — the snapshot timestamp each reader
//     observes never moves backwards, and the watermark lag is sampled
//     per read;
//   - conservation — the sum of active-document amounts equals the
//     writer-side ledger balance on every snapshot, because each
//     writer transaction updates both sides atomically;
//   - page sanity — ORDER BY+LIMIT pages are correctly ordered and
//     never exceed the page size.
//
// Run reports per-class throughput and p50/p95/p99 latency, freshness
// lag, maintenance activity, and governance kill counts as a Report
// (rendered to BENCH_HTAP.json by cmd/vdmhtap).
package htapbench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"vdm/internal/engine"
)

// Config parameterizes one harness run.
type Config struct {
	// Writers and Readers are the session-fleet sizes.
	Writers int
	Readers int
	// Duration bounds a concurrent run's wall time (ignored in
	// deterministic mode). Zero with Ops zero defaults to 5s.
	Duration time.Duration
	// Ops bounds the operations per session. In concurrent mode zero
	// means duration-bounded; deterministic mode requires Ops > 0 so
	// the schedule is finite and byte-identical across runs.
	Ops int
	// Seed drives every session's operation stream and the
	// deterministic scheduler's interleave.
	Seed int64
	// Scale is the number of preloaded active documents (the analytical
	// working set; ledger balances are seeded to match).
	Scale int
	// Mix weights the operation classes (see ParseMix).
	Mix Mix
	// Deterministic runs every session op on one goroutine in a
	// seed-derived interleave: the schedule log and the invariant
	// digest are then byte-identical across same-seed runs. Statement
	// timeouts are forced off in this mode (wall-clock kills would
	// perturb the digest).
	Deterministic bool
	// Engine holds the engine options for the run (maintenance,
	// governance, batch size). The zero value is replaced by
	// DefaultEngineOptions.
	Engine engine.Options
	// Replicas is the number of WAL-shipped read replicas the harness
	// runs beside the engine, tailing Engine.WALDir; the replica reader
	// class reads them. 0 runs none.
	Replicas int
}

// DefaultEngineOptions are the engine settings a realistic mixed run
// uses: background auto-merge and version GC on (so the maintenance
// loop competes with the workload), a statement timeout and memory
// budget per analytical query, and vectorized execution (the default).
func DefaultEngineOptions() engine.Options {
	return engine.Options{
		AutoMerge:        true,
		MergeThreshold:   1024,
		GCInterval:       20 * time.Millisecond,
		StatementTimeout: 10 * time.Second,
		MemoryBudget:     256 << 20,
	}
}

// normalized fills config defaults.
func (c Config) normalized() (Config, error) {
	if c.Writers < 0 || c.Readers < 0 {
		return c, fmt.Errorf("htapbench: negative session count")
	}
	if c.Writers == 0 && c.Readers == 0 {
		return c, fmt.Errorf("htapbench: no sessions configured")
	}
	if c.Scale < 0 {
		return c, fmt.Errorf("htapbench: negative scale")
	}
	if c.Deterministic && c.Ops <= 0 {
		return c, fmt.Errorf("htapbench: deterministic mode requires Ops > 0")
	}
	if c.Duration <= 0 && c.Ops <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix()
	}
	zero := engine.Options{}
	if c.Engine == zero {
		c.Engine = DefaultEngineOptions()
	}
	if c.Deterministic {
		// Wall-clock kills are nondeterministic; the digest must not
		// depend on them.
		c.Engine.StatementTimeout = 0
		c.Engine.QueueTimeout = 0
	}
	if c.Replicas > 0 {
		if c.Engine.WALDir == "" {
			return c, fmt.Errorf("htapbench: replicas require a WAL directory (replicas are WAL-shipped)")
		}
		if c.Mix.Replica == 0 {
			return c, fmt.Errorf("htapbench: replicas need the replica reader class (mix weight replica > 0); no other op reads them")
		}
	}
	if c.Replicas <= 0 && c.Mix.Replica > 0 {
		// Replica reads need replicas; drop the class rather than fail,
		// keeping at least one reader class alive if it was the only one.
		c.Mix.Replica = 0
		if c.Mix.View+c.Mix.Filter+c.Mix.Page+c.Mix.Conserve+c.Mix.Pinned == 0 {
			c.Mix.Pinned = 1
		}
	}
	return c, nil
}

// mode names the run mode for logs and reports.
func (c Config) mode() string {
	if c.Deterministic {
		return "det"
	}
	return "concurrent"
}

// walMode names the run's durability mode for the report: the WAL sync
// policy when durable, empty when memory-only.
func (c Config) walMode() string {
	if c.Engine.WALDir == "" {
		return ""
	}
	return c.Engine.WALSync.String()
}

// Mix holds the per-class operation weights. Writer sessions draw from
// {Insert, Draft, Activate, Delete}, reader sessions from {View,
// Filter, Page, Conserve, Pinned, Replica}. A zero weight disables the
// class. Replica (a replica read checked against the primary at the
// same pinned timestamp) requires Config.Replicas > 0 and is forced to
// zero otherwise; replicas in turn require it.
type Mix struct {
	Insert, Draft, Activate, Delete               int
	View, Filter, Page, Conserve, Pinned, Replica int
}

// DefaultMix is a balanced OLTP/OLAP mix with periodic invariant reads.
func DefaultMix() Mix {
	return Mix{
		Insert: 4, Draft: 2, Activate: 2, Delete: 2,
		View: 3, Filter: 3, Page: 3, Conserve: 2, Pinned: 1,
	}
}

// mixPresets are the named mixes -mix accepts besides k=v overrides.
var mixPresets = map[string]Mix{
	"default": DefaultMix(),
	"write-heavy": {
		Insert: 8, Draft: 3, Activate: 3, Delete: 4,
		View: 2, Filter: 2, Page: 2, Conserve: 1, Pinned: 1,
	},
	"read-heavy": {
		Insert: 2, Draft: 1, Activate: 1, Delete: 1,
		View: 4, Filter: 4, Page: 4, Conserve: 2, Pinned: 1,
	},
}

// mixFields maps the -mix key names onto Mix fields.
func (m *Mix) fields() map[string]*int {
	return map[string]*int{
		"insert": &m.Insert, "draft": &m.Draft, "activate": &m.Activate, "delete": &m.Delete,
		"view": &m.View, "filter": &m.Filter, "page": &m.Page, "conserve": &m.Conserve, "pinned": &m.Pinned,
		"replica": &m.Replica,
	}
}

// ParseMix parses a mix specification: a preset name ("default",
// "write-heavy", "read-heavy") or comma-separated key=weight overrides
// of the default mix, e.g. "insert=8,delete=4,page=6".
func ParseMix(s string) (Mix, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DefaultMix(), nil
	}
	if m, ok := mixPresets[s]; ok {
		return m, nil
	}
	m := DefaultMix()
	fields := m.fields()
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Mix{}, fmt.Errorf("htapbench: bad mix term %q (want key=weight)", part)
		}
		p, ok := fields[strings.ToLower(kv[0])]
		if !ok {
			return Mix{}, fmt.Errorf("htapbench: unknown mix class %q", kv[0])
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("htapbench: bad mix weight %q", kv[1])
		}
		*p = w
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("htapbench: mix has no positive weights")
	}
	return m, nil
}

func (m Mix) total() int {
	return m.Insert + m.Draft + m.Activate + m.Delete + m.View + m.Filter + m.Page + m.Conserve + m.Pinned + m.Replica
}

// String renders the mix in canonical (sorted key=weight) form; it
// round-trips through ParseMix and keys the schedule-log header.
func (m Mix) String() string {
	fields := m.fields()
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, *fields[k]))
	}
	return strings.Join(parts, ",")
}
