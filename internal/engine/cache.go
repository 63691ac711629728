package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"vdm/internal/bind"
	"vdm/internal/catalog"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// Cached views (§3): SAP HANA offers static cached views (SCV,
// periodically refreshed snapshots) and dynamic cached views (DCV,
// always up to date). Here an SCV is a materialization table refreshed
// by RefreshCache, and a DCV refreshes automatically on access whenever
// a base table changed — the same visible semantics as incremental
// maintenance with a different refresh cost profile (see DESIGN.md).
// The binder reads a cache wherever its view is referenced
// (bind.Binder.BindCached), below the view's DAC policies, so a cache
// serves each user what its view serves.

// CreateCachedView materializes a view. dynamic selects DCV semantics.
// A view whose body resolves CURRENT_USER(), itself or in a DAC policy
// of a view it reads, cannot be cached: one copy serves every user.
func (e *Engine) CreateCachedView(view string, dynamic bool) error {
	ctx, end, err := e.beginStatement(context.Background())
	if err != nil {
		return err
	}
	defer end()
	vd, ok := e.cat.View(view)
	if !ok {
		return fmt.Errorf("engine: view %s does not exist", view)
	}
	p, err := e.bindCacheBody(vd)
	if err != nil {
		return err
	}
	var schema types.Schema
	for i, id := range p.Root.Columns() {
		schema = append(schema, types.Column{Name: p.OutNames[i], Type: p.Ctx.Type(id)})
	}
	cacheTable := "__cache_" + strings.ToLower(view)
	if _, err := e.db.CreateTable(cacheTable, schema); err != nil {
		return err
	}
	info := &catalog.CacheInfo{
		View:       vd,
		Table:      cacheTable,
		Dynamic:    dynamic,
		BaseTables: scannedTables(p.Root),
	}
	if err := e.cat.AddCache(info); err != nil {
		_ = e.db.DropTable(cacheTable)
		return err
	}
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.refreshLocked(ctx, info)
}

// bindCacheBody binds a view's body as the cache materializes it: with
// no session user, and rejected when binding resolved CURRENT_USER().
func (e *Engine) bindCacheBody(vd *catalog.ViewDef) (*plan.Plan, error) {
	b := bind.New(e.cat, "")
	p, err := b.BindQuery(vd.Query)
	if err != nil {
		return nil, err
	}
	if b.ReadUser() {
		return nil, fmt.Errorf("engine: view %s depends on CURRENT_USER() and cannot be cached", vd.Name)
	}
	return p, nil
}

// scannedTables lists, sorted, the tables a bound plan scans: every
// table a query reads, in FROM, a view, or a subquery.
func scannedTables(n plan.Node) []string {
	var out []string
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out = append(out, strings.ToLower(s.Info.Name))
		}
		for _, in := range n.Inputs() {
			walk(in)
		}
	}
	walk(n)
	slices.Sort(out)
	return slices.Compact(out)
}

// RefreshCache re-materializes a cached view from its definition.
func (e *Engine) RefreshCache(view string) error {
	info, ok := e.cat.Cache(view)
	if !ok {
		return fmt.Errorf("engine: view %s is not cached", view)
	}
	ctx, end, err := e.beginStatement(context.Background())
	if err != nil {
		return err
	}
	defer end()
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.refreshLocked(ctx, info)
}

// refreshLocked replaces a cache's rows with its definition's rows at
// one snapshot, whose timestamp becomes RefreshedAt. The caller holds
// cacheMu and the statement's admission slot.
func (e *Engine) refreshLocked(ctx context.Context, info *catalog.CacheInfo) error {
	p, err := e.bindCacheBody(info.View)
	if err != nil {
		return err
	}
	if _, err := e.optimize(ctx, p); err != nil {
		return err
	}
	lease := e.db.AcquireRead()
	defer lease.Release()
	res, err := e.runAt(ctx, p, e.db, lease.TS(), nil)
	if err != nil {
		return err
	}
	tbl, ok := e.db.Table(info.Table)
	if !ok {
		return fmt.Errorf("engine: cache table %s missing", info.Table)
	}
	tx := e.db.Begin()
	for _, pos := range tbl.SnapshotAt(tx.ReadTS()).Rows() {
		if err := tx.Delete(tbl, pos); err != nil {
			tx.Rollback()
			return err
		}
	}
	for _, row := range res.Rows {
		if err := tx.Insert(tbl, row); err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	info.RefreshedAt = lease.TS()
	e.metrics.cacheRefreshes.Inc()
	return nil
}

// DropCachedView removes a view's cache (the view stays).
func (e *Engine) DropCachedView(view string) error {
	info, ok := e.cat.Cache(view)
	if !ok {
		return fmt.Errorf("engine: view %s is not cached", view)
	}
	if err := e.cat.DropCache(view); err != nil {
		return err
	}
	return e.db.DropTable(info.Table)
}

// CacheStale reports whether any base table of a cached view committed
// changes after the snapshot of the last refresh.
func (e *Engine) CacheStale(view string) (bool, error) {
	info, ok := e.cat.Cache(view)
	if !ok {
		return false, fmt.Errorf("engine: view %s is not cached", view)
	}
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.staleLocked(info), nil
}

func (e *Engine) staleLocked(info *catalog.CacheInfo) bool {
	for _, bt := range info.BaseTables {
		if tbl, ok := e.db.Table(bt); ok && tbl.Version() > info.RefreshedAt {
			return true
		}
	}
	return false
}

// QueryCached runs a query reading cached views: each cached view it
// references, at any depth, reads its materialization table under the
// view's DAC policies instead of unfolding the view stack. A stale
// dynamic cache is refreshed first, within the query's statement
// timeout and admission slot. The plan cache is not used.
func (e *Engine) QueryCached(user, sqlText string) (*Result, error) {
	body, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	ctx, end, err := e.beginStatement(context.Background())
	if err != nil {
		return nil, err
	}
	defer end()
	p, caches, err := bind.New(e.cat, user).BindCached(body)
	if err == nil {
		_, err = e.optimize(ctx, p)
	}
	if err != nil {
		return nil, e.metrics.failFast(err)
	}
	if err := e.refreshStale(ctx, caches); err != nil {
		return nil, err // a refresh's run counts its own failure
	}
	return e.run(ctx, p)
}

// refreshStale refreshes each stale dynamic cache among caches. Staleness
// is checked under cacheMu, so concurrent readers of one stale cache
// refresh it once.
func (e *Engine) refreshStale(ctx context.Context, caches []*catalog.CacheInfo) error {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	for _, info := range caches {
		if info.Dynamic && e.staleLocked(info) {
			if err := e.refreshLocked(ctx, info); err != nil {
				return err
			}
		}
	}
	return nil
}
