// Package bind translates parsed SQL into the logical plan algebra:
// name resolution, view inlining (VDM views nest up to depth 24 in the
// paper; the binder unfolds them completely), expression-macro expansion
// (§7.2), DAC filter injection (§3), aggregate extraction, and type
// inference.
package bind

import (
	"fmt"
	"strings"

	"vdm/internal/catalog"
	"vdm/internal/decimal"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/types"
)

// MaxViewDepth bounds view nesting (the paper reports a maximum nesting
// depth of 24 in the production VDM; 64 leaves ample headroom while
// catching definition cycles).
const MaxViewDepth = 64

// Binder translates statements for one query.
type Binder struct {
	cat  *catalog.Catalog
	ctx  *plan.Context
	user string
	// caches binds a cached view as a scan of its cache (BindCached);
	// read lists the caches read; readUser records that binding resolved
	// CURRENT_USER().
	caches   bool
	read     []*catalog.CacheInfo
	readUser bool
}

// New returns a binder. user is the session user for CURRENT_USER() and
// DAC policy injection; it may be empty.
func New(cat *catalog.Catalog, user string) *Binder {
	return &Binder{cat: cat, ctx: plan.NewContext(), user: user}
}

// BindCached is BindQuery reading each cached view from its
// materialization table instead of its body (§3); the view's DAC
// policies still apply above the scan, with CURRENT_USER() bound to the
// session user. It also returns the caches read, once each.
func (b *Binder) BindCached(q sql.QueryExpr) (*plan.Plan, []*catalog.CacheInfo, error) {
	b.caches = true
	p, err := b.BindQuery(q)
	return p, b.read, err
}

// ReadUser reports whether binding resolved CURRENT_USER(), directly or
// in the DAC policy of a view it unfolded: the plan then depends on the
// session user.
func (b *Binder) ReadUser() bool { return b.readUser }

// Context returns the column context produced by binding.
func (b *Binder) Context() *plan.Context { return b.ctx }

// scopeCol is one visible column during name resolution.
type scopeCol struct {
	qualifier string // lower-cased alias or relation name; "" if none
	name      string // lower-cased column name
	display   string // original spelling
	id        types.ColumnID
	typ       types.Type
}

// scope is the name-resolution environment of one SELECT. outer chains
// to an enclosing query's scope for correlated subqueries.
type scope struct {
	cols []scopeCol
	// macros available from views in FROM: upper-cased name -> definition
	macros map[string]sql.Expr
	outer  *scope
}

func (s *scope) addMacros(m map[string]sql.Expr) {
	if len(m) == 0 {
		return
	}
	if s.macros == nil {
		s.macros = make(map[string]sql.Expr)
	}
	for k, v := range m {
		s.macros[strings.ToUpper(k)] = v
	}
}

// resolve finds a column by (optional) qualifier and name.
func (s *scope) resolve(qualifier, name string) (scopeCol, error) {
	q := strings.ToLower(qualifier)
	n := strings.ToLower(name)
	var found []scopeCol
	for _, c := range s.cols {
		if c.name != n {
			continue
		}
		if q != "" && c.qualifier != q {
			continue
		}
		found = append(found, c)
	}
	switch len(found) {
	case 0:
		if s.outer != nil {
			return s.outer.resolve(qualifier, name)
		}
		if qualifier != "" {
			return scopeCol{}, fmt.Errorf("bind: column %s.%s not found", qualifier, name)
		}
		return scopeCol{}, fmt.Errorf("bind: column %s not found", name)
	case 1:
		return found[0], nil
	default:
		return scopeCol{}, fmt.Errorf("bind: column reference %s is ambiguous", name)
	}
}

// BindQuery binds a query body and returns the plan.
func (b *Binder) BindQuery(q sql.QueryExpr) (*plan.Plan, error) {
	node, names, err := b.bindQueryExpr(q, 0, nil)
	if err != nil {
		return nil, err
	}
	return &plan.Plan{Ctx: b.ctx, Root: node, OutNames: names}, nil
}

func (b *Binder) bindQueryExpr(q sql.QueryExpr, depth int, outer *scope) (plan.Node, []string, error) {
	switch q := q.(type) {
	case *sql.Select:
		return b.bindSelect(q, depth, outer)
	case *sql.UnionAll:
		return b.bindUnionAll(q, depth, outer)
	}
	return nil, nil, fmt.Errorf("bind: unknown query expression %T", q)
}

func (b *Binder) bindUnionAll(u *sql.UnionAll, depth int, outer *scope) (plan.Node, []string, error) {
	// Flatten nested UNION ALL into one n-ary node (the paper's Figure 3
	// has a five-way UNION ALL).
	var flat func(q sql.QueryExpr) []sql.QueryExpr
	flat = func(q sql.QueryExpr) []sql.QueryExpr {
		if un, ok := q.(*sql.UnionAll); ok {
			return append(flat(un.Left), flat(un.Right)...)
		}
		return []sql.QueryExpr{q}
	}
	parts := flat(u)
	var children []plan.Node
	var names []string
	for i, p := range parts {
		child, childNames, err := b.bindQueryExpr(p, depth, outer)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			names = childNames
		} else if len(childNames) != len(names) {
			return nil, nil, fmt.Errorf("bind: UNION ALL children have %d and %d columns", len(names), len(childNames))
		}
		children = append(children, child)
	}
	// Each column takes the branches' common type, and a branch whose
	// column differs is converted in a Project over it, so that every
	// value of a union column has the column's type.
	cols := make([][]types.ColumnID, len(children))
	for ci, child := range children {
		cols[ci] = child.Columns()
	}
	typs := make([]types.Type, len(names))
	for i := range typs {
		typs[i] = b.ctx.Type(cols[0][i])
		for _, cc := range cols[1:] {
			t := b.ctx.Type(cc[i])
			common, ok := unionType(typs[i], t)
			if !ok {
				return nil, nil, fmt.Errorf("bind: UNION ALL column %d has no common type: %s and %s", i+1, typs[i], t)
			}
			typs[i] = common
		}
	}
	for ci, child := range children {
		children[ci] = b.convertColumns(child, cols[ci], names, typs)
	}
	outCols := make([]types.ColumnID, len(names))
	for i := range outCols {
		outCols[i] = b.ctx.NewColumn(names[i], typs[i])
	}
	return &plan.UnionAll{Children: children, Cols: outCols}, names, nil
}

// unionType returns the common type of two UNION ALL branch columns:
// their type when they agree, the other's when one is NULL-typed, and
// the arithmetic promotion of two numbers (int, decimal, float); ok is
// false when there is none.
func unionType(a, b types.Type) (types.Type, bool) {
	num := func(t types.Type) bool { return t == types.TInt || t == types.TDecimal || t == types.TFloat }
	switch {
	case a == b || b == types.TNull:
		return a, true
	case a == types.TNull:
		return b, true
	case num(a) && num(b):
		t, err := numericResult("+", a, b)
		return t, err == nil
	}
	return 0, false
}

// convertColumns returns n, whose columns are cols, with its columns
// converted to typs (convertExpr): a Project over n when some column's
// type differs.
func (b *Binder) convertColumns(n plan.Node, cols []types.ColumnID, names []string, typs []types.Type) plan.Node {
	same := true
	for i, id := range cols {
		same = same && b.ctx.Type(id) == typs[i]
	}
	if same {
		return n
	}
	proj := &plan.Project{Input: n, Cols: make([]plan.ProjCol, len(cols))}
	for i, id := range cols {
		t := b.ctx.Type(id)
		out := id
		if t != typs[i] {
			out = b.ctx.NewColumn(names[i], typs[i])
		}
		proj.Cols[i] = plan.ProjCol{ID: out, Expr: convertExpr(&plan.ColRef{ID: id, Typ: t}, typs[i])}
	}
	return proj
}

// commonType returns the common type of exprs under unionType (NULL for
// none), or an error naming two types with none.
func commonType(exprs []plan.Expr) (types.Type, error) {
	t := types.TNull
	for _, e := range exprs {
		u, ok := unionType(t, e.Type())
		if !ok {
			return 0, fmt.Errorf("no common type: %s and %s", t, e.Type())
		}
		t = u
	}
	return t, nil
}

// convertExpr returns e converted to t, the common type of the values it
// stands beside (a UNION ALL column, CASE arms, COALESCE arguments), so
// that every value there has type t. A NULL literal or NULL-typed column
// becomes a NULL of t; a number is promoted by adding a zero of t, which
// Arith and the batch kernels evaluate exactly. Any other NULL-typed
// expression is kept: its value is NULL, and its errors stay.
func convertExpr(e plan.Expr, t types.Type) plan.Expr {
	switch e.Type() {
	case t:
		return e
	case types.TNull:
		switch e.(type) {
		case *plan.Const, *plan.ColRef:
			return &plan.Const{Val: types.NewNull(t)}
		}
		return e
	}
	zero := types.NewInt(0)
	switch t {
	case types.TFloat:
		zero = types.NewFloat(0)
	case types.TDecimal:
		zero = types.NewDecimal(decimal.Decimal{})
	}
	return &plan.Bin{Op: "+", L: e, R: &plan.Const{Val: zero}, Typ: t}
}

// typeCase types a CASE by the common type of its arms and ELSE, and
// converts an arm of another type to it.
func typeCase(c *plan.Case) error {
	arms := make([]plan.Expr, 0, len(c.Whens)+1)
	for _, w := range c.Whens {
		arms = append(arms, w.Then)
	}
	if c.Else != nil {
		arms = append(arms, c.Else)
	}
	t, err := commonType(arms)
	if err != nil {
		return fmt.Errorf("bind: CASE arms have %v", err)
	}
	c.Typ = t
	for i := range c.Whens {
		c.Whens[i].Then = convertExpr(c.Whens[i].Then, t)
	}
	if c.Else != nil {
		c.Else = convertExpr(c.Else, t)
	}
	return nil
}

func (b *Binder) bindSelect(sel *sql.Select, depth int, outer *scope) (plan.Node, []string, error) {
	if depth > MaxViewDepth {
		return nil, nil, fmt.Errorf("bind: view nesting exceeds %d (definition cycle?)", MaxViewDepth)
	}
	var node plan.Node
	sc := &scope{outer: outer}
	if sel.From != nil {
		var err error
		node, err = b.bindTableExpr(sel.From, sc, depth)
		if err != nil {
			return nil, nil, err
		}
	} else {
		node = &plan.Values{Rows: [][]plan.Expr{{}}}
	}

	// WHERE: subquery predicates (EXISTS / IN) at the top conjunct level
	// are unnested into semi/anti joins; the rest becomes a filter.
	if sel.Where != nil {
		var err error
		node, err = b.bindWhere(sel.Where, node, sc, depth)
		if err != nil {
			return nil, nil, err
		}
	}

	// Expand stars and macros in the select items.
	items, err := b.expandItems(sel, sc)
	if err != nil {
		return nil, nil, err
	}

	// Aggregate query?
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if exprHasAggregate(it.expr) {
			hasAgg = true
		}
	}
	var outNode plan.Node
	var outNames []string
	var outIDs []types.ColumnID
	if hasAgg {
		outNode, outIDs, outNames, err = b.bindAggregate(sel, items, node, sc)
		if err != nil {
			return nil, nil, err
		}
	} else {
		// Plain projection.
		var cols []plan.ProjCol
		for _, it := range items {
			e := it.pre
			if e == nil {
				var err error
				e, err = b.bindExpr(it.expr, sc, false)
				if err != nil {
					return nil, nil, err
				}
			}
			id := b.ctx.NewColumn(it.name, e.Type())
			cols = append(cols, plan.ProjCol{ID: id, Expr: e})
			outIDs = append(outIDs, id)
			outNames = append(outNames, it.name)
		}
		outNode = &plan.Project{Input: node, Cols: cols}
	}

	if sel.Distinct {
		outNode = &plan.Distinct{Input: outNode}
	}

	// ORDER BY: keys may reference output aliases or input columns.
	if len(sel.OrderBy) > 0 {
		outNode, err = b.bindOrderBy(sel.OrderBy, outNode, outIDs, outNames, sc, hasAgg)
		if err != nil {
			return nil, nil, err
		}
	}

	// LIMIT / OFFSET (constant expressions only).
	if sel.Limit != nil || sel.Offset != nil {
		lim := &plan.Limit{Input: outNode, Count: -1}
		if sel.Limit != nil {
			n, err := constInt(sel.Limit)
			if err != nil {
				return nil, nil, fmt.Errorf("bind: LIMIT: %v", err)
			}
			lim.Count = n
		}
		if sel.Offset != nil {
			n, err := constInt(sel.Offset)
			if err != nil {
				return nil, nil, fmt.Errorf("bind: OFFSET: %v", err)
			}
			lim.Offset = n
		}
		outNode = lim
	}
	return outNode, outNames, nil
}

func constInt(e sql.Expr) (int64, error) {
	lit, ok := e.(*sql.Lit)
	if !ok || lit.Val.Typ != types.TInt {
		return 0, fmt.Errorf("expected integer constant")
	}
	return lit.Val.Int(), nil
}

// boundItem is a select item after star/macro expansion. Star-expanded
// items are pre-bound (pre != nil) so duplicate column names in the
// scope cannot make them ambiguous.
type boundItem struct {
	expr sql.Expr
	name string
	pre  plan.Expr
}

func (b *Binder) expandItems(sel *sql.Select, sc *scope) ([]boundItem, error) {
	var items []boundItem
	for _, it := range sel.Items {
		if it.Star {
			q := strings.ToLower(it.StarTable)
			n := 0
			for _, c := range sc.cols {
				if q != "" && c.qualifier != q {
					continue
				}
				items = append(items, boundItem{
					expr: &sql.ColRef{Table: c.qualifier, Name: c.display},
					name: c.display,
					pre:  &plan.ColRef{ID: c.id, Typ: c.typ},
				})
				n++
			}
			if n == 0 {
				if q != "" {
					return nil, fmt.Errorf("bind: %s.* matches no columns", it.StarTable)
				}
				return nil, fmt.Errorf("bind: * with empty FROM scope")
			}
			continue
		}
		expr, err := b.expandMacros(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = itemName(it.Expr)
		}
		items = append(items, boundItem{expr: expr, name: name})
	}
	return items, nil
}

// itemName derives a display name for an unaliased item.
func itemName(e sql.Expr) string {
	switch e := e.(type) {
	case *sql.ColRef:
		return e.Name
	case *sql.FuncCall:
		return strings.ToLower(e.Name)
	case *sql.MacroRef:
		return strings.ToLower(e.Name)
	case *sql.AllowPrecisionLoss:
		return itemName(e.E)
	}
	return "expr"
}

// expandMacros replaces EXPRESSION_MACRO(name) references with the
// defining expression from a view in the FROM scope (§7.2).
func (b *Binder) expandMacros(e sql.Expr, sc *scope) (sql.Expr, error) {
	var rewrite func(e sql.Expr) (sql.Expr, error)
	rewrite = func(e sql.Expr) (sql.Expr, error) {
		switch e := e.(type) {
		case *sql.MacroRef:
			def, ok := sc.macros[strings.ToUpper(e.Name)]
			if !ok {
				return nil, fmt.Errorf("bind: expression macro %s is not defined by any view in FROM", e.Name)
			}
			return def, nil
		case *sql.BinOp:
			l, err := rewrite(e.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(e.R)
			if err != nil {
				return nil, err
			}
			return &sql.BinOp{Op: e.Op, L: l, R: r}, nil
		case *sql.UnOp:
			x, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			return &sql.UnOp{Op: e.Op, E: x}, nil
		case *sql.IsNull:
			x, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			return &sql.IsNull{E: x, Not: e.Not}, nil
		case *sql.InList:
			x, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			out := &sql.InList{E: x, Not: e.Not}
			for _, v := range e.List {
				vv, err := rewrite(v)
				if err != nil {
					return nil, err
				}
				out.List = append(out.List, vv)
			}
			return out, nil
		case *sql.Between:
			x, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			lo, err := rewrite(e.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := rewrite(e.Hi)
			if err != nil {
				return nil, err
			}
			return &sql.Between{E: x, Lo: lo, Hi: hi}, nil
		case *sql.FuncCall:
			out := &sql.FuncCall{Name: e.Name, Distinct: e.Distinct, Star: e.Star}
			for _, a := range e.Args {
				aa, err := rewrite(a)
				if err != nil {
					return nil, err
				}
				out.Args = append(out.Args, aa)
			}
			return out, nil
		case *sql.CaseExpr:
			out := &sql.CaseExpr{}
			for _, w := range e.Whens {
				c, err := rewrite(w.Cond)
				if err != nil {
					return nil, err
				}
				t, err := rewrite(w.Then)
				if err != nil {
					return nil, err
				}
				out.Whens = append(out.Whens, sql.CaseWhen{Cond: c, Then: t})
			}
			if e.Else != nil {
				el, err := rewrite(e.Else)
				if err != nil {
					return nil, err
				}
				out.Else = el
			}
			return out, nil
		case *sql.AllowPrecisionLoss:
			x, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			return &sql.AllowPrecisionLoss{E: x}, nil
		default:
			return e, nil
		}
	}
	return rewrite(e)
}

// bindOrderBy sorts the projected result. Keys resolve first against
// output aliases, then (for non-aggregate queries) against the input
// scope, adding hidden sort columns as needed.
func (b *Binder) bindOrderBy(order []sql.OrderItem, node plan.Node, outIDs []types.ColumnID, outNames []string, sc *scope, aggregated bool) (plan.Node, error) {
	var keys []plan.SortKey
	var hidden []plan.ProjCol
	for _, o := range order {
		// Alias reference? Qualified references fall back to matching the
		// bare column name against the output (SQL engines commonly allow
		// ORDER BY d.name when the item list projects d.name).
		if cr, ok := o.Expr.(*sql.ColRef); ok {
			found := -1
			for i, n := range outNames {
				if strings.EqualFold(n, cr.Name) {
					found = i
					break
				}
			}
			if found >= 0 && (cr.Table == "" || aggregated) {
				keys = append(keys, plan.SortKey{Col: outIDs[found], Desc: o.Desc})
				continue
			}
		}
		// Positional reference (ORDER BY 2)?
		if lit, ok := o.Expr.(*sql.Lit); ok && lit.Val.Typ == types.TInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > len(outIDs) {
				return nil, fmt.Errorf("bind: ORDER BY position %d out of range", pos)
			}
			keys = append(keys, plan.SortKey{Col: outIDs[pos-1], Desc: o.Desc})
			continue
		}
		if aggregated {
			return nil, fmt.Errorf("bind: ORDER BY expression %s must reference an output column in an aggregate query", sql.ExprString(o.Expr))
		}
		e, err := b.bindExpr(o.Expr, sc, false)
		if err != nil {
			return nil, err
		}
		id := b.ctx.NewColumn("__sort", e.Type())
		hidden = append(hidden, plan.ProjCol{ID: id, Expr: e})
		keys = append(keys, plan.SortKey{Col: id, Desc: o.Desc})
	}
	if len(hidden) > 0 {
		// Hidden sort keys cannot be computed above the projection (its
		// source columns are gone), so widen the projection, sort, then
		// strip the hidden columns with a pass-through projection.
		proj, ok := node.(*plan.Project)
		if !ok {
			return nil, fmt.Errorf("bind: ORDER BY expression requires a plain (non-DISTINCT) projection")
		}
		wide := &plan.Project{Input: proj.Input, Cols: append(append([]plan.ProjCol{}, proj.Cols...), hidden...)}
		sorted := &plan.Sort{Input: wide, Keys: keys}
		var strip []plan.ProjCol
		for _, c := range proj.Cols {
			id := b.ctx.NewColumn(b.ctx.Name(c.ID), b.ctx.Type(c.ID))
			strip = append(strip, plan.ProjCol{ID: id, Expr: &plan.ColRef{ID: c.ID, Typ: b.ctx.Type(c.ID)}})
		}
		return &plan.Project{Input: sorted, Cols: strip}, nil
	}
	return &plan.Sort{Input: node, Keys: keys}, nil
}
