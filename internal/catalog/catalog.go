// Package catalog maintains the schema metadata of the engine: base
// tables (backed by internal/storage), SQL views (stored as parsed
// ASTs, as VDM views are deployed as SQL views), expression macros
// attached to views (§7.2), and record-wise data access control (DAC)
// policies injected per user when a protected view is queried (§3).
package catalog

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"vdm/internal/sql"
	"vdm/internal/storage"
)

// ViewDef is a deployed SQL view.
type ViewDef struct {
	Name string
	// Query is the view body.
	Query sql.QueryExpr
	// Macros maps macro name (upper-cased) to its defining expression,
	// written in terms of the view's output columns.
	Macros map[string]sql.Expr
}

// DACPolicy is a record-wise data access control policy on a view: when
// a user queries the view, Filter is ANDed above the view body. The
// filter may reference the view's columns and may call CURRENT_USER(),
// which the binder replaces with the querying user.
type DACPolicy struct {
	Name   string
	Filter sql.Expr
}

// Catalog is the metadata store.
type Catalog struct {
	mu     sync.RWMutex
	db     *storage.DB
	views  map[string]*ViewDef
	dacs   map[string][]DACPolicy
	caches map[string]*CacheInfo
	// epoch counts mutations. Each one bumps it after it is applied, under
	// mu, so a reader that sees an epoch also sees every mutation before
	// it; a plan bound between two reads of an unchanged epoch saw one
	// consistent catalog.
	epoch atomic.Uint64
}

// Epoch returns the mutation counter: it moves whenever a view, DAC
// policy or cache registration changes.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// New returns a catalog over the given storage database.
func New(db *storage.DB) *Catalog {
	return &Catalog{
		db:    db,
		views: make(map[string]*ViewDef),
		dacs:  make(map[string][]DACPolicy),
	}
}

// DB returns the underlying storage database.
func (c *Catalog) DB() *storage.DB { return c.db }

// Table resolves a base table.
func (c *Catalog) Table(name string) (*storage.Table, bool) {
	return c.db.Table(name)
}

// View resolves a view by case-insensitive name.
func (c *Catalog) View(name string) (*ViewDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[strings.ToLower(name)]
	return v, ok
}

// CreateView deploys a view. It fails if a table or view with the name
// exists.
func (c *Catalog) CreateView(v *ViewDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(v.Name)
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("catalog: view %s already exists", v.Name)
	}
	if _, ok := c.db.Table(v.Name); ok {
		return fmt.Errorf("catalog: %s already exists as a table", v.Name)
	}
	if v.Macros == nil {
		v.Macros = make(map[string]sql.Expr)
	}
	c.views[key] = v
	c.epoch.Add(1)
	return nil
}

// ReplaceView deploys a view, overwriting any existing definition. This
// is the mechanism behind the paper's custom-field extension: the
// consumption view is redefined on top while interim views stay
// unchanged (§5.1).
func (c *Catalog) ReplaceView(v *ViewDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.db.Table(v.Name); ok {
		return fmt.Errorf("catalog: %s already exists as a table", v.Name)
	}
	if v.Macros == nil {
		v.Macros = make(map[string]sql.Expr)
	}
	c.views[strings.ToLower(v.Name)] = v
	c.epoch.Add(1)
	return nil
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", name)
	}
	delete(c.views, key)
	delete(c.dacs, key)
	c.epoch.Add(1)
	return nil
}

// ViewNames returns the deployed view names.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for _, v := range c.views {
		out = append(out, v.Name)
	}
	return out
}

// AddDAC attaches a DAC policy to a view.
func (c *Catalog) AddDAC(viewName string, p DACPolicy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(viewName)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", viewName)
	}
	c.dacs[key] = append(c.dacs[key], p)
	c.epoch.Add(1)
	return nil
}

// DACFor returns the DAC policies of a view (nil if unprotected).
func (c *Catalog) DACFor(viewName string) []DACPolicy {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dacs[strings.ToLower(viewName)]
}
