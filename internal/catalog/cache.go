package catalog

import (
	"fmt"
	"strings"
)

// CacheInfo describes a cached (materialized) view (§3): a static one
// (SCV) is refreshed explicitly and serves a possibly-stale snapshot; a
// dynamic one (DCV) is refreshed on access once a base table changed.
type CacheInfo struct {
	// View is the definition the cache materializes: a replaced or
	// re-created view is not read from it.
	View *ViewDef
	// Table is the backing materialization table.
	Table string
	// Dynamic selects DCV semantics (refresh-on-access).
	Dynamic bool
	// RefreshedAt is the snapshot timestamp of the last refresh; the
	// engine reads and writes it under its refresh lock.
	RefreshedAt uint64
	// BaseTables are the tables the view's bound body scans.
	BaseTables []string
}

// AddCache registers a cache for a view.
func (c *Catalog) AddCache(info *CacheInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(info.View.Name)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", info.View.Name)
	}
	if c.caches == nil {
		c.caches = make(map[string]*CacheInfo)
	}
	if _, dup := c.caches[key]; dup {
		return fmt.Errorf("catalog: view %s is already cached", info.View.Name)
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
