package bind

import (
	"fmt"
	"slices"
	"strings"

	"vdm/internal/catalog"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// bindTableExpr binds a FROM item, appending its columns to sc.
func (b *Binder) bindTableExpr(te sql.TableExpr, sc *scope, depth int) (plan.Node, error) {
	switch te := te.(type) {
	case *sql.TableRef:
		return b.bindTableRef(te, sc, depth)
	case *sql.SubqueryRef:
		node, names, err := b.bindQueryExpr(te.Query, depth+1, nil)
		if err != nil {
			return nil, err
		}
		addCols(sc, b.ctx, strings.ToLower(te.Alias), node.Columns(), names)
		return node, nil
	case *sql.JoinExpr:
		return b.bindJoin(te, sc, depth)
	}
	return nil, fmt.Errorf("bind: unknown table expression %T", te)
}

func (b *Binder) bindJoin(j *sql.JoinExpr, sc *scope, depth int) (plan.Node, error) {
	left, err := b.bindTableExpr(j.Left, sc, depth)
	if err != nil {
		return nil, err
	}
	right, err := b.bindTableExpr(j.Right, sc, depth)
	if err != nil {
		return nil, err
	}
	var kind plan.JoinKind
	switch j.Kind {
	case sql.JoinInner:
		kind = plan.InnerJoin
	case sql.JoinLeftOuter:
		kind = plan.LeftOuterJoin
	case sql.JoinCross:
		kind = plan.CrossJoin
	}
	join := &plan.Join{Kind: kind, Left: left, Right: right, Card: j.Card, CaseJoin: j.CaseJoin}
	if j.On != nil {
		cond, err := b.bindExpr(j.On, sc, false)
		if err != nil {
			return nil, err
		}
		if cond.Type() != types.TBool {
			return nil, fmt.Errorf("bind: join condition must be boolean")
		}
		join.Cond = cond
	} else if kind != plan.CrossJoin {
		return nil, fmt.Errorf("bind: %s requires ON", j.Kind)
	}
	return join, nil
}

// bindTableRef resolves a name to a base table scan or an inlined view.
func (b *Binder) bindTableRef(tr *sql.TableRef, sc *scope, depth int) (plan.Node, error) {
	qual := strings.ToLower(tr.Alias)
	if qual == "" {
		qual = strings.ToLower(tr.Name)
	}

	// Base table?
	if tbl, ok := b.cat.Table(tr.Name); ok {
		scan, names := b.scanTable(tbl)
		addCols(sc, b.ctx, qual, scan.Cols, names)
		return scan, nil
	}

	// View?
	if view, ok := b.cat.View(tr.Name); ok {
		if depth+1 > MaxViewDepth {
			return nil, fmt.Errorf("bind: view nesting exceeds %d at %s", MaxViewDepth, tr.Name)
		}
		node, names, err := b.bindView(view, depth)
		if err != nil {
			return nil, err
		}
		// Local scope for DAC filter resolution over the view's output.
		viewScope := &scope{}
		cols := node.Columns()
		addCols(viewScope, b.ctx, strings.ToLower(view.Name), cols, names)
		// Inject DAC policies (§3): each policy filter is ANDed above the
		// view body with CURRENT_USER() resolved to the session user.
		for _, p := range b.cat.DACFor(view.Name) {
			cond, err := b.bindExpr(p.Filter, viewScope, false)
			if err != nil {
				return nil, fmt.Errorf("bind: DAC policy %s on %s: %v", p.Name, view.Name, err)
			}
			node = &plan.Filter{Input: node, Cond: cond}
		}
		addCols(sc, b.ctx, qual, cols, names)
		sc.addMacros(view.Macros)
		return node, nil
	}

	return nil, fmt.Errorf("bind: table or view %s does not exist", tr.Name)
}

// bindView binds a view's body or, when the binder reads caches and the
// view has one of this definition, a scan of its materialization table,
// whose columns are the body's.
func (b *Binder) bindView(view *catalog.ViewDef, depth int) (plan.Node, []string, error) {
	if b.caches {
		if info, ok := b.cat.Cache(view.Name); ok && info.View == view {
			tbl, ok := b.cat.Table(info.Table)
			if !ok {
				return nil, nil, fmt.Errorf("bind: cache table %s of view %s is missing", info.Table, view.Name)
			}
			if !slices.Contains(b.read, info) {
				b.read = append(b.read, info)
			}
			scan, names := b.scanTable(tbl)
			return scan, names, nil
		}
	}
	node, names, err := b.bindQueryExpr(view.Query, depth+1, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("bind: in view %s: %v", view.Name, err)
	}
	return node, names, nil
}

// scanTable returns a scan of every column of tbl, and the columns' names.
func (b *Binder) scanTable(tbl *storage.Table) (*plan.Scan, []string) {
	info := &plan.TableInfo{Name: tbl.Name(), Schema: tbl.Schema()}
	for _, k := range tbl.Keys() {
		info.Keys = append(info.Keys, plan.KeyInfo{Columns: k.Columns, Primary: k.Primary})
	}
	for _, fk := range tbl.ForeignKeys() {
		info.FKs = append(info.FKs, plan.FKInfo{Columns: fk.Columns, RefTable: fk.RefTable})
	}
	st := tbl.StatsSnapshot()
	info.Stats = &st
	scan := &plan.Scan{Info: info, Instance: b.ctx.NewInstance()}
	names := make([]string, len(info.Schema))
	for ord, col := range info.Schema {
		scan.Cols = append(scan.Cols, b.ctx.NewColumn(col.Name, col.Type))
		scan.Ords = append(scan.Ords, ord)
		names[ord] = col.Name
	}
	return scan, names
}

// addCols makes columns cols, named names, visible in sc under qual.
func addCols(sc *scope, ctx *plan.Context, qual string, cols []types.ColumnID, names []string) {
	for i, id := range cols {
		sc.cols = append(sc.cols, scopeCol{
			qualifier: qual,
			name:      strings.ToLower(names[i]),
			display:   names[i],
			id:        id,
			typ:       ctx.Type(id),
		})
	}
}
