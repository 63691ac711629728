package catalog

import (
	"fmt"
	"strings"
)

// CacheInfo describes a cached (materialized) view, the mechanism the
// paper mentions in §3: static cached views (SCV) are refreshed
// explicitly and serve a possibly-stale snapshot; dynamic cached views
// (DCV) always serve the up-to-date state. In this reproduction a DCV
// is maintained by refresh-on-access when any base table changed since
// the last refresh (a behavioural substitute for HANA's incremental
// maintenance: same visible semantics, different refresh cost profile).
type CacheInfo struct {
	// View is the cached view's name.
	View string
	// Table is the backing materialization table.
	Table string
	// Dynamic selects DCV semantics (refresh-on-access).
	Dynamic bool
	// RefreshedAt is the commit timestamp of the last refresh.
	RefreshedAt uint64
	// BaseTables are the base tables the view (transitively) reads.
	BaseTables []string
}

// AddCache registers a cache for a view.
func (c *Catalog) AddCache(info *CacheInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(info.View)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", info.View)
	}
	if c.caches == nil {
		c.caches = make(map[string]*CacheInfo)
	}
	if _, dup := c.caches[key]; dup {
		return fmt.Errorf("catalog: view %s is already cached", info.View)
	}
	c.caches[key] = info
	c.epoch.Add(1)
	return nil
}

// Cache returns the cache registered for a view, if any.
func (c *Catalog) Cache(view string) (*CacheInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	info, ok := c.caches[strings.ToLower(view)]
	return info, ok
}

// DropCache unregisters a view's cache.
func (c *Catalog) DropCache(view string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(view)
	if _, ok := c.caches[key]; !ok {
		return fmt.Errorf("catalog: view %s is not cached", view)
	}
	delete(c.caches, key)
	c.epoch.Add(1)
	return nil
}
