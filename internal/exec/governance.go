package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"vdm/internal/plan"
)

// Query lifecycle governance: per-query cancellation, memory budgets,
// and panic isolation. A Governance instance is created by the engine
// for each query and attached to the Builder; every blocking operator
// checks it at batch granularity (never per row), so the
// overhead is one atomic load per govCheckRows rows while cancellation
// still propagates within a batch.

// Typed governance errors. All are errors.Is-matchable through whatever
// wrapping the engine adds on top.
var (
	// ErrCancelled reports that the query's context was cancelled.
	ErrCancelled = errors.New("exec: query cancelled")
	// ErrTimeout reports that the statement timeout (or a context
	// deadline) expired mid-query.
	ErrTimeout = errors.New("exec: statement timeout")
	// ErrMemoryBudget reports that the query exceeded its memory budget.
	ErrMemoryBudget = errors.New("exec: memory budget exceeded")
	// ErrInternal reports a panic recovered inside the executor; the
	// query fails but the engine stays healthy.
	ErrInternal = errors.New("exec: internal error")
)

// Pause-point names: the fixed spots where governance hooks fire, one
// per blocking-operator family. Tests install Hooks that block at a
// point to pin a query mid-operator, then cancel/timeout/panic it
// deterministically.
const (
	// PointScan fires when a scan starts (a top-k sweep fires it once
	// per source).
	PointScan = "scan"
	// PointHashBuild fires when a join starts materializing its build
	// side (hash, semi, build-left, and cross joins).
	PointHashBuild = "hash_build"
	// PointGroupMerge fires when an aggregation starts consuming input.
	PointGroupMerge = "groupby_merge"
	// PointTopK fires when a fused ORDER BY+LIMIT top-k starts.
	PointTopK = "topk"
	// PointSort fires when a full sort starts buffering input.
	PointSort = "sort"
)

// govCheckRows is the row stride between governance checks inside
// operator hot loops: one atomic context check per this many rows.
const govCheckRows = 1024

// memFlushBytes is how many locally-accumulated bytes an operator may
// hold before flushing them into the shared ResourceTracker, bounding
// both the atomic traffic and the budget-enforcement slack.
const memFlushBytes = 32 << 10

// Hooks are fault-injection points for governance tests, mirroring
// storage.TestHooks: OnPoint, when non-nil, is invoked every time an
// operator passes a pause point, OUTSIDE any locks, with the query's
// context — so a hook that blocks to pin an interleaving can (and
// should) unblock on ctx.Done(). A non-nil error fails the query.
// Production code never installs hooks; a nil *Hooks costs one nil
// check per pause point.
type Hooks struct {
	OnPoint func(ctx context.Context, point string) error
}

// ResourceTracker meters the bytes a query holds in blocking operators
// (hash tables, sort buffers, top-k heaps, group tables, materialized
// results) against a budget. All methods are safe for concurrent use.
// budget <= 0 disables enforcement; the tracker still records usage and
// peak.
type ResourceTracker struct {
	budget int64
	used   atomic.Int64
	peak   atomic.Int64
}

// Grow reserves n more bytes, failing with ErrMemoryBudget when the
// reservation would exceed the budget (the reservation is rolled back).
func (t *ResourceTracker) Grow(n int64) error {
	used := t.used.Add(n)
	if t.budget > 0 && used > t.budget {
		t.used.Add(-n)
		return fmt.Errorf("%w: query needs > %d bytes (budget %d)", ErrMemoryBudget, used, t.budget)
	}
	for {
		p := t.peak.Load()
		if used <= p || t.peak.CompareAndSwap(p, used) {
			return nil
		}
	}
}

// Release returns n bytes to the budget.
func (t *ResourceTracker) Release(n int64) { t.used.Add(-n) }

// Used returns the bytes currently reserved.
func (t *ResourceTracker) Used() int64 { return t.used.Load() }

// Peak returns the high-water mark of reserved bytes.
func (t *ResourceTracker) Peak() int64 { return t.peak.Load() }

// Governance bundles one query's cancellation context, resource
// tracker, and test hooks. A nil *Governance is fully inert: every
// method is nil-safe and free, so ungoverned builders (EXPLAIN
// cardinality checks, direct Builder use in tests) pay nothing.
type Governance struct {
	ctx     context.Context
	done    <-chan struct{}
	tracker ResourceTracker
	hooks   *Hooks
}

// NewGovernance returns a governance handle for one query. memoryBudget
// <= 0 means unlimited; hooks may be nil.
func NewGovernance(ctx context.Context, memoryBudget int64, hooks *Hooks) *Governance {
	g := &Governance{ctx: ctx, done: ctx.Done(), hooks: hooks}
	g.tracker.budget = memoryBudget
	return g
}

// ContextErr maps a context's error to the typed governance errors:
// deadline expiry to ErrTimeout, cancellation to ErrCancelled. It
// returns nil while ctx is live.
func ContextErr(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	default:
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
}

// Err returns the typed cancellation/timeout error once the query's
// context is done, nil before (and always nil on a nil receiver). This
// is the strided check operators run every govCheckRows rows.
func (g *Governance) Err() error {
	if g == nil {
		return nil
	}
	select {
	case <-g.done:
		return ContextErr(g.ctx)
	default:
		return nil
	}
}

// Context returns the query context (context.Background on nil).
func (g *Governance) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// point fires the named pause point: the test hook first (if any), then
// the cancellation check, so a hook that blocked until cancellation
// still surfaces the typed error.
func (g *Governance) point(name string) error {
	if g == nil {
		return nil
	}
	if h := g.hooks; h != nil && h.OnPoint != nil {
		if err := h.OnPoint(g.ctx, name); err != nil {
			return err
		}
	}
	return g.Err()
}

// grow reserves n bytes against the query budget (no-op on nil).
func (g *Governance) grow(n int64) error {
	if g == nil {
		return nil
	}
	return g.tracker.Grow(n)
}

// release returns n bytes (no-op on nil).
func (g *Governance) release(n int64) {
	if g != nil {
		g.tracker.Release(n)
	}
}

// PeakBytes returns the query's peak tracked memory (0 on nil).
func (g *Governance) PeakBytes() int64 {
	if g == nil {
		return 0
	}
	return g.tracker.Peak()
}

// Tracker exposes the query's resource tracker (nil on nil receiver).
func (g *Governance) Tracker() *ResourceTracker {
	if g == nil {
		return nil
	}
	return &g.tracker
}

// memAcct is one operator's memory account: bytes accumulate locally
// and flush into the shared tracker every memFlushBytes, so the per-row
// cost is a local add. Close (via the owning iterator's Close) releases
// everything. Not safe for concurrent use.
type memAcct struct {
	gov   *Governance
	held  int64 // flushed into the tracker
	local int64 // accumulated since the last flush
}

// add accounts n more bytes, enforcing the budget at flush granularity.
func (a *memAcct) add(n int64) error {
	a.local += n
	if a.local >= memFlushBytes {
		return a.flush()
	}
	return nil
}

// flush moves the local balance into the shared tracker.
func (a *memAcct) flush() error {
	if a.local == 0 {
		return nil
	}
	n := a.local
	a.local = 0
	if err := a.gov.grow(n); err != nil {
		return err
	}
	a.held += n
	return nil
}

// bytes returns everything the account has seen (EXPLAIN ANALYZE's
// mem_bytes column reads this after the operator is done).
func (a *memAcct) bytes() int64 { return a.held + a.local }

// close releases the flushed reservation back to the budget.
func (a *memAcct) close() {
	a.gov.release(a.held)
	a.held, a.local = 0, 0
}

// govStride spreads cancellation checks across hot loops: tick returns
// a non-nil typed error once per govCheckRows calls after the context
// is done.
type govStride struct {
	gov *Governance
	n   int
}

func (s *govStride) tick() error {
	s.n++
	if s.n >= govCheckRows {
		s.n = 0
		return s.gov.Err()
	}
	return nil
}

// panicErr converts a recovered panic into the typed ErrInternal,
// naming the operator it escaped from.
func panicErr(op string, r any) error {
	return fmt.Errorf("%w: panic in %s: %v", ErrInternal, op, r)
}

// opName renders a plan node's type for panic attribution.
func opName(n plan.Node) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", n), "*plan.")
}
