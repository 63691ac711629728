package engine

import (
	"sync"

	"vdm/internal/metrics"
	"vdm/internal/plan"
)

// planCache memoizes optimized plans per (user, profile, SQL) — the
// "plan once, execute many" behaviour interactive VDM consumers rely
// on, and the context in which the paper weighs query-optimization time
// against execution time (§6.3). Any DDL (new tables, views, caches,
// DAC policies) invalidates the whole cache.
type planCache struct {
	mu      sync.RWMutex
	entries map[string]*plan.Plan
	// epoch is the storage schema epoch the cache was last validated
	// against; DDL that bypasses the engine (direct DB.CreateTable /
	// DB.DropTable) bumps the storage epoch and invalidates the cache on
	// the next lookup.
	epoch uint64
	// statsEpoch is the storage statistics epoch (coarse: bumped on
	// order-of-magnitude row-count crossings and on statistics refreshes
	// whose numbers moved by an order of magnitude).
	// Cached plans embed cost-based decisions — most importantly the
	// hash-join build side — made from bind-time statistics, so a moved
	// stats epoch invalidates the cache and forces a replan.
	statsEpoch uint64
	// hits/misses are atomic so lookups can record them under the read
	// lock (and so Engine.Metrics can read them concurrently).
	hits   metrics.Counter
	misses metrics.Counter
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*plan.Plan{}}
}

func (c *planCache) get(key string) (*plan.Plan, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.entries[key]
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return p, ok
}

func (c *planCache) put(key string, p *plan.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = p
}

func (c *planCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

func (c *planCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*plan.Plan{}
}

// checkEpoch invalidates the cache when the storage schema epoch moved
// since the last lookup (DDL performed directly on the storage DB,
// which never goes through Engine.Exec's invalidation) or when the
// coarse statistics epoch moved (bulk data changes that can flip
// cost-based decisions baked into cached plans).
func (c *planCache) checkEpoch(epoch, statsEpoch uint64) {
	c.mu.RLock()
	ok := c.epoch == epoch && c.statsEpoch == statsEpoch
	c.mu.RUnlock()
	if ok {
		return
	}
	c.mu.Lock()
	if c.epoch != epoch || c.statsEpoch != statsEpoch {
		c.entries = map[string]*plan.Plan{}
		c.epoch = epoch
		c.statsEpoch = statsEpoch
	}
	c.mu.Unlock()
}

// EnablePlanCache switches plan caching on or off (off by default).
// Plans are keyed by user, optimizer profile, and SQL text; the cache is
// cleared by every DDL statement.
func (e *Engine) EnablePlanCache(on bool) {
	if on {
		c := newPlanCache()
		c.epoch = e.db.SchemaEpoch()
		c.statsEpoch = e.db.StatsEpoch()
		e.plans = c
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
