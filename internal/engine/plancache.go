package engine

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"vdm/internal/bind"
	"vdm/internal/core"
	"vdm/internal/exec"
	"vdm/internal/metrics"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// planCache memoizes optimized plans per statement shape — the "plan
// once, execute many" behaviour interactive VDM consumers rely on, and
// the context in which the paper weighs query-optimization time against
// execution time (§6.3).
//
// A shape is (user, profile, sql.Fingerprint of the statement): the
// statement with its number and string literals lifted into slots. Each
// shape holds plan templates, one per variant: a template planned from
// one statement, with the slots its rewrites pinned (core/pin.go) and the
// literals it was planned with. A statement of the shape reuses the first
// variant whose pinned literals equal its own: unchanged, when every
// literal is equal, else through plan.Instantiate. The optimizer's cost
// decisions (join order, build side) are those sniffed from the literals
// the template was planned with; the stats epoch still invalidates them.
//
// At most maxCachedPlans variants are held, least recently used evicted
// first. Any move of the storage schema epoch, the statistics epoch or
// the catalog epoch drops every plan, and a plan whose planning straddled
// such a move is not cached.
type planCache struct {
	mu     sync.Mutex
	shapes map[string][]*variant
	lru    list.List // of *variant, most recently used first
	epoch  cacheEpoch

	// hits counts lookups served without planning (template hits
	// included), templateHits those that instantiated a template with
	// new literals. Atomic, so Engine.Metrics reads them concurrently.
	hits, misses, templateHits, evictions metrics.Counter
}

// maxCachedPlans bounds the cached variants of all shapes together.
const maxCachedPlans = 1024

// cacheEpoch is what a cached plan was planned against. The schema epoch
// moves on DDL done directly on the storage DB, the statistics epoch on
// bulk data changes that can flip cost-based decisions baked into a plan
// (coarse: order-of-magnitude row-count crossings and refreshes whose
// numbers moved as much), and the catalog epoch on every view, DAC policy
// or cache registration change.
type cacheEpoch struct{ schema, stats, catalog uint64 }

// variant is one plan template of a shape.
type variant struct {
	key    string
	plan   *plan.Plan
	vals   []types.Value // the literals it was planned with, by slot
	pinned []int         // slots whose values its rewrites decided on
	builds *exec.BuildStore
	elem   *list.Element
	// body is the statement it was planned from, kept under the
	// plancacheaudit build tag only.
	body sql.QueryExpr
}

// accepts reports whether the template serves a statement with literals
// vals: every pinned literal must be the one it was planned with.
func (v *variant) accepts(vals []types.Value) bool {
	for _, s := range v.pinned {
		if v.vals[s] != vals[s] {
			return false
		}
	}
	return true
}

// instance returns the template's plan bound to vals: the template
// itself when every literal is its own.
func (v *variant) instance(vals []types.Value) *plan.Plan {
	if slices.Equal(v.vals, vals) {
		return v.plan
	}
	t := v.plan
	return &plan.Plan{Ctx: t.Ctx, Root: plan.Instantiate(t.Root, vals), OutNames: t.OutNames, Est: t.Est}
}

func newPlanCache(ep cacheEpoch) *planCache {
	return &planCache{shapes: map[string][]*variant{}, epoch: ep}
}

// get returns the variant of shape key that accepts vals, after dropping
// every plan if the epoch moved.
func (c *planCache) get(key string, vals []types.Value, ep cacheEpoch) (*variant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != ep {
		c.clear()
		c.epoch = ep
	}
	for _, v := range c.shapes[key] {
		if v.accepts(vals) {
			c.lru.MoveToFront(v.elem)
			c.hits.Inc()
			return v, true
		}
	}
	c.misses.Inc()
	return nil, false
}

// put caches v, planned against planned, unless the epoch has moved
// since (now is the epoch after planning): a plan bound to a catalog
// that changed under it is dropped, not served. It reports whether v was
// cached.
func (c *planCache) put(v *variant, planned, now cacheEpoch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if planned != now || c.epoch != planned {
		return false
	}
	for _, w := range c.shapes[v.key] {
		if w.accepts(v.vals) {
			return false // a concurrent planner got there first
		}
	}
	c.shapes[v.key] = append(c.shapes[v.key], v)
	v.elem = c.lru.PushFront(v)
	for c.lru.Len() > maxCachedPlans {
		c.evict(c.lru.Back().Value.(*variant))
	}
	return true
}

// evict drops the least recently used variant and its builds.
func (c *planCache) evict(v *variant) {
	v.builds.Release()
	c.lru.Remove(v.elem)
	vs := slices.DeleteFunc(c.shapes[v.key], func(w *variant) bool { return w == v })
	if len(vs) == 0 {
		delete(c.shapes, v.key)
	} else {
		c.shapes[v.key] = vs
	}
	c.evictions.Inc()
}

func (c *planCache) clear() {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*variant).builds.Release()
	}
	c.shapes = map[string][]*variant{}
	c.lru.Init()
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *planCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clear()
}

// cacheEpoch reads the epochs a cached plan depends on.
func (e *Engine) cacheEpoch() cacheEpoch {
	return cacheEpoch{schema: e.db.SchemaEpoch(), stats: e.db.StatsEpoch(), catalog: e.cat.Epoch()}
}

// EnablePlanCache switches plan caching on or off (off by default).
// Plans are keyed by user, optimizer profile, and statement shape; the
// cache is cleared by every schema or catalog change.
func (e *Engine) EnablePlanCache(on bool) {
	if e.plans != nil {
		e.plans.invalidate() // releases its builds
	}
	if on {
		e.plans = newPlanCache(e.cacheEpoch())
	} else {
		e.plans = nil
	}
}

// PlanCacheStats returns (hits, misses) since the cache was enabled.
func (e *Engine) PlanCacheStats() (hits, misses int64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.hits.Value(), e.plans.misses.Value()
}

// auditInstance re-plans a statement served by instantiating v and
// panics unless the template's own statement and this one fire the same
// rules, removing the same joins, and reach the same plan before the
// cost pass, with lifted literals shown as $n. A difference means some
// rewrite decided on a slot's value without pinning it. Build with
// -tags plancacheaudit to run it on every instantiation.
func (e *Engine) auditInstance(user string, v *variant, body sql.QueryExpr, vals []types.Value) {
	wantEvents, wantPlan := e.auditPlan(user, v.body)
	gotEvents, gotPlan := e.auditPlan(user, body)
	var moved []int
	for s := 1; s < len(vals); s++ {
		if vals[s] != v.vals[s] {
			moved = append(moved, s)
		}
	}
	for i := range max(len(wantEvents), len(gotEvents)) {
		var w, g core.TraceEvent
		if i < len(wantEvents) {
			w = wantEvents[i]
		}
		if i < len(gotEvents) {
			g = gotEvents[i]
		}
		if w.Rule != g.Rule || w.JoinsRemoved != g.JoinsRemoved {
			panic(fmt.Sprintf("engine: plan template reused across unpinned slots %v: rule %d is %q (-%d joins), template fired %q (-%d joins)\nshape: %q",
				moved, i, g.Rule, g.JoinsRemoved, w.Rule, w.JoinsRemoved, v.key))
		}
	}
	if gotPlan != wantPlan {
		panic(fmt.Sprintf("engine: plan template reused across unpinned slots %v: plans differ\ntemplate:\n%s\nfresh:\n%s", moved, wantPlan, gotPlan))
	}
}

// auditPlan binds and optimizes body without the cost pass.
func (e *Engine) auditPlan(user string, body sql.QueryExpr) ([]core.TraceEvent, string) {
	p, err := bind.New(e.cat, user).BindQuery(body)
	if err != nil {
		panic(fmt.Sprintf("engine: plan audit: %v", err))
	}
	opt := core.NewOptimizer(p.Ctx, e.profile)
	root := opt.Optimize(p.Root)
	return opt.Report().Events, plan.Format(p.Ctx, root)
}
