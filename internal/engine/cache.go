package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"vdm/internal/catalog"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// Cached views (§3): SAP HANA offers static cached views (SCV,
// periodically refreshed snapshots) and dynamic cached views (DCV,
// always up to date). Here an SCV is a materialization table refreshed
// by RefreshCache, and a DCV refreshes automatically on access whenever
// a base table changed — the same visible semantics as incremental
// maintenance with a different refresh cost profile (see DESIGN.md).

// CreateCachedView materializes a view. dynamic selects DCV semantics.
func (e *Engine) CreateCachedView(view string, dynamic bool) error {
	vd, ok := e.cat.View(view)
	if !ok {
		return fmt.Errorf("engine: view %s does not exist", view)
	}
	p, err := e.planQuery(context.Background(), "", vd.Query, true)
	if err != nil {
		return err
	}
	cols := p.Root.Columns()
	var schema types.Schema
	for i, id := range cols {
		schema = append(schema, types.Column{Name: p.OutNames[i], Type: p.Ctx.Type(id)})
	}
	cacheTable := "__cache_" + strings.ToLower(view)
	if _, err := e.db.CreateTable(cacheTable, schema); err != nil {
		return err
	}
	info := &catalog.CacheInfo{
		View:       view,
		Table:      cacheTable,
		Dynamic:    dynamic,
		BaseTables: e.baseTablesOf(vd.Query, map[string]bool{}),
	}
	if err := e.cat.AddCache(info); err != nil {
		_ = e.db.DropTable(cacheTable)
		return err
	}
	return e.RefreshCache(view)
}

// RefreshCache re-materializes a cached view from its definition.
func (e *Engine) RefreshCache(view string) error {
	info, ok := e.cat.Cache(view)
	if !ok {
		return fmt.Errorf("engine: view %s is not cached", view)
	}
	vd, _ := e.cat.View(view)
	p, err := e.planQuery(context.Background(), "", vd.Query, true)
	if err != nil {
		return err
	}
	res, err := e.run(context.Background(), p)
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
	info.RefreshedAt = e.db.CurrentTS()
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
// changes after the last refresh.
func (e *Engine) CacheStale(view string) (bool, error) {
	info, ok := e.cat.Cache(view)
	if !ok {
		return false, fmt.Errorf("engine: view %s is not cached", view)
	}
	for _, bt := range info.BaseTables {
		tbl, ok := e.db.Table(bt)
		if !ok {
			continue
		}
		if tbl.Version() > info.RefreshedAt {
			return true, nil
		}
	}
	return false, nil
}

// QueryCached runs a query with cached views substituted: a query over
// a cached view reads its materialization table instead of unfolding
// the view stack. Dynamic caches are refreshed first when stale.
func (e *Engine) QueryCached(user, sqlText string) (*Result, error) {
	body, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	// Refresh stale dynamic caches referenced by the query.
	for _, view := range e.referencedCachedViews(body) {
		info, _ := e.cat.Cache(view)
		if info.Dynamic {
			stale, err := e.CacheStale(view)
			if err != nil {
				return nil, err
			}
			if stale {
				if err := e.RefreshCache(view); err != nil {
					return nil, err
				}
			}
		}
	}
	rewritten := substituteCachedViews(body, func(name string) (string, bool) {
		if info, ok := e.cat.Cache(name); ok {
			return info.Table, true
		}
		return "", false
	})
	p, err := e.planQuery(context.Background(), user, rewritten, true)
	if err != nil {
		return nil, err
	}
	return e.run(context.Background(), p)
}

// referencedCachedViews lists cached views referenced (directly) by the
// query.
func (e *Engine) referencedCachedViews(q sql.QueryExpr) []string {
	seen := map[string]bool{}
	var out []string
	for _, ref := range directRefs(q) {
		key := strings.ToLower(ref)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := e.cat.Cache(ref); ok {
			out = append(out, ref)
		}
	}
	return out
}

// baseTablesOf transitively resolves the base tables a query reads.
func (e *Engine) baseTablesOf(q sql.QueryExpr, visiting map[string]bool) []string {
	set := map[string]bool{}
	for _, ref := range directRefs(q) {
		key := strings.ToLower(ref)
		if visiting[key] {
			continue
		}
		if vd, ok := e.cat.View(ref); ok {
			visiting[key] = true
			for _, bt := range e.baseTablesOf(vd.Query, visiting) {
				set[bt] = true
			}
			delete(visiting, key)
			continue
		}
		if tbl, ok := e.db.Table(ref); ok {
			set[strings.ToLower(tbl.Name())] = true
		}
	}
	var out []string
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// directRefs lists table/view names referenced directly by a query.
func directRefs(q sql.QueryExpr) []string {
	var out []string
	var fromTE func(te sql.TableExpr)
	var fromQ func(q sql.QueryExpr)
	fromTE = func(te sql.TableExpr) {
		switch te := te.(type) {
		case *sql.TableRef:
			out = append(out, te.Name)
		case *sql.SubqueryRef:
			fromQ(te.Query)
		case *sql.JoinExpr:
			fromTE(te.Left)
			fromTE(te.Right)
		}
	}
	fromQ = func(q sql.QueryExpr) {
		switch q := q.(type) {
		case *sql.Select:
			if q.From != nil {
				fromTE(q.From)
			}
		case *sql.UnionAll:
			fromQ(q.Left)
			fromQ(q.Right)
		}
	}
	fromQ(q)
	return out
}

// substituteCachedViews rewrites direct references to cached views into
// their materialization tables.
func substituteCachedViews(q sql.QueryExpr, lookup func(string) (string, bool)) sql.QueryExpr {
	var rewriteTE func(te sql.TableExpr) sql.TableExpr
	var rewriteQ func(q sql.QueryExpr) sql.QueryExpr
	rewriteTE = func(te sql.TableExpr) sql.TableExpr {
		switch te := te.(type) {
		case *sql.TableRef:
			if table, ok := lookup(te.Name); ok {
				alias := te.Alias
				if alias == "" {
					alias = te.Name
				}
				return &sql.TableRef{Name: table, Alias: alias}
			}
			return te
		case *sql.SubqueryRef:
			return &sql.SubqueryRef{Query: rewriteQ(te.Query), Alias: te.Alias}
		case *sql.JoinExpr:
			out := *te
			out.Left = rewriteTE(te.Left)
			out.Right = rewriteTE(te.Right)
			return &out
		}
		return te
	}
	rewriteQ = func(q sql.QueryExpr) sql.QueryExpr {
		switch q := q.(type) {
		case *sql.Select:
			out := *q
			if q.From != nil {
				out.From = rewriteTE(q.From)
			}
			return &out
		case *sql.UnionAll:
			return &sql.UnionAll{Left: rewriteQ(q.Left), Right: rewriteQ(q.Right)}
		}
		return q
	}
	return rewriteQ(q)
}
