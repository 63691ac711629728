// Package plan defines the logical relational algebra the binder
// produces and the optimizer (internal/core) rewrites: scans, projections,
// filters, joins (with cardinality specifications and the CASE JOIN
// flag), grouping, union all, sort, limit, and distinct.
//
// Column identity follows the scheme described in internal/types: every
// base-table scan instance and every computed expression is assigned a
// fresh ColumnID by the binder, registered in a per-query Context that
// records each column's name and type.
package plan

import (
	"vdm/internal/sql"
	"vdm/internal/types"
)

// Context is the per-query column registry. All nodes of one plan share
// one Context.
type Context struct {
	names     []string
	typs      []types.Type
	instances int
}

// NewContext returns an empty context.
func NewContext() *Context { return &Context{} }

// NewColumn registers a new column and returns its ID.
func (c *Context) NewColumn(name string, t types.Type) types.ColumnID {
	id := types.ColumnID(len(c.names))
	c.names = append(c.names, name)
	c.typs = append(c.typs, t)
	return id
}

// Name returns the registered name of a column.
func (c *Context) Name(id types.ColumnID) string { return c.names[id] }

// Type returns the registered type of a column.
func (c *Context) Type(id types.ColumnID) types.Type { return c.typs[id] }

// NumColumns returns the number of registered columns.
func (c *Context) NumColumns() int { return len(c.names) }

// NewInstance allocates a scan-instance identifier (used for base-table
// provenance in the ASJ optimizer).
func (c *Context) NewInstance() int {
	c.instances++
	return c.instances
}

// KeyInfo is a uniqueness constraint on a base table, expressed as
// schema ordinals.
type KeyInfo struct {
	Columns []int
	Primary bool
}

// FKInfo is foreign-key metadata: Columns of this table reference the
// primary key of RefTable.
type FKInfo struct {
	Columns  []int
	RefTable string
}

// TableInfo carries everything the planner needs to know about a base
// table; it is filled in by the binder from the catalog.
type TableInfo struct {
	Name   string
	Schema types.Schema
	Keys   []KeyInfo
	FKs    []FKInfo
	// Stats is the table's statistics snapshot at bind time (nil when
	// the catalog provides none). The cost-based passes in internal/core
	// and the estimator in internal/stats read it; the plan cache's
	// stats epoch bounds how stale it can get.
	Stats *types.TableStats
}

// Node is a logical plan operator.
type Node interface {
	// Columns returns the node's output columns in order.
	Columns() []types.ColumnID
	// Inputs returns the child operators.
	Inputs() []Node
	// SetInput replaces child i.
	SetInput(i int, n Node)
	// opName returns the display name.
	opName() string
}

// Scan reads a base table instance. Cols/Ords are parallel: output
// column i carries table column Ords[i]. Column pruning narrows both.
type Scan struct {
	Info     *TableInfo
	Instance int // unique per scan instance within the query
	Cols     []types.ColumnID
	Ords     []int
}

// Columns implements Node.
func (s *Scan) Columns() []types.ColumnID { return s.Cols }

// Inputs implements Node.
func (s *Scan) Inputs() []Node { return nil }

// SetInput implements Node.
func (s *Scan) SetInput(int, Node) { panic("plan: Scan has no inputs") }

func (s *Scan) opName() string { return "Scan" }

// OrdOf returns the output position of the table ordinal, or -1 if the
// ordinal is not currently projected by this scan.
func (s *Scan) OrdOf(ord int) int {
	for i, o := range s.Ords {
		if o == ord {
			return i
		}
	}
	return -1
}

// ProjCol is one output column of a Project.
type ProjCol struct {
	ID   types.ColumnID
	Expr Expr
}

// Project computes expressions over its input.
type Project struct {
	Input Node
	Cols  []ProjCol
}

// Columns implements Node.
func (p *Project) Columns() []types.ColumnID {
	out := make([]types.ColumnID, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = c.ID
	}
	return out
}

// Inputs implements Node.
func (p *Project) Inputs() []Node { return []Node{p.Input} }

// SetInput implements Node.
func (p *Project) SetInput(i int, n Node) { p.Input = n }

func (p *Project) opName() string { return "Project" }

// Filter keeps the input rows for which Cond evaluates to TRUE.
type Filter struct {
	Input Node
	Cond  Expr
}

// Columns implements Node.
func (f *Filter) Columns() []types.ColumnID { return f.Input.Columns() }

// Inputs implements Node.
func (f *Filter) Inputs() []Node { return []Node{f.Input} }

// SetInput implements Node.
func (f *Filter) SetInput(i int, n Node) { f.Input = n }

func (f *Filter) opName() string { return "Filter" }

// JoinKind is the logical join type.
type JoinKind uint8

const (
	// InnerJoin keeps matching pairs.
	InnerJoin JoinKind = iota
	// LeftOuterJoin keeps all left rows, NULL-extending on miss.
	LeftOuterJoin
	// CrossJoin is the Cartesian product.
	CrossJoin
	// SemiJoin keeps left rows with at least one match (EXISTS / IN
	// subqueries after unnesting); output columns are the left side's.
	SemiJoin
	// AntiJoin keeps left rows with no match (NOT EXISTS / NOT IN);
	// output columns are the left side's.
	AntiJoin
)

// String returns the display name.
func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "InnerJoin"
	case LeftOuterJoin:
		return "LeftOuterJoin"
	case CrossJoin:
		return "CrossJoin"
	case SemiJoin:
		return "SemiJoin"
	case AntiJoin:
		return "AntiJoin"
	}
	return "Join"
}

// Join combines two inputs. Its output columns are the left columns
// followed by the right columns. Card carries a §7.3 cardinality
// specification; CaseJoin marks the §6.3 CASE JOIN (explicit ASJ intent).
type Join struct {
	Kind     JoinKind
	Left     Node
	Right    Node
	Cond     Expr // nil for cross join
	Card     sql.CardSpec
	CaseJoin bool
	// NotIn marks a NOT IN anti join: it is the subquery column y of the
	// comparison x = y among Cond's conjuncts (nil on every other join).
	// The other conjuncts are the lifted correlation; the build rows they
	// hold TRUE for are the probe row's group C. NOT IN keeps a probe row
	// iff C is empty, or x is non-NULL and no row of C has y = x or a
	// NULL y. Column IDs survive rewrites, so the executor finds the
	// comparison by y and never by conjunct order.
	NotIn *ColRef
	// BuildLeft asks the executor to build the hash table on the left
	// input and stream the right — set by the optimizer's cost-based
	// build-side pass when the left is estimated smaller. The executor
	// also flips on its own LIMIT-bound heuristic, so BuildLeft=false
	// means "no statistics-driven preference", not "build right".
	BuildLeft bool
}

// Columns implements Node.
func (j *Join) Columns() []types.ColumnID {
	l := j.Left.Columns()
	if j.Kind == SemiJoin || j.Kind == AntiJoin {
		return append([]types.ColumnID(nil), l...)
	}
	r := j.Right.Columns()
	out := make([]types.ColumnID, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// Inputs implements Node.
func (j *Join) Inputs() []Node { return []Node{j.Left, j.Right} }

// SetInput implements Node.
func (j *Join) SetInput(i int, n Node) {
	if i == 0 {
		j.Left = n
	} else {
		j.Right = n
	}
}

func (j *Join) opName() string { return j.Kind.String() }

// AggOp is an aggregate function.
type AggOp uint8

const (
	// AggSum is SUM.
	AggSum AggOp = iota
	// AggCount is COUNT(x) / COUNT(*).
	AggCount
	// AggMin is MIN.
	AggMin
	// AggMax is MAX.
	AggMax
	// AggAvg is AVG.
	AggAvg
)

// String returns the SQL name.
func (a AggOp) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	}
	return "AGG"
}

// AggCol is one aggregate output of a GroupBy. Star marks COUNT(*);
// Distinct marks COUNT(DISTINCT x) etc. AllowPrecisionLoss marks that
// the §7.1 rounding/addition interchange has been authorized for this
// aggregate.
type AggCol struct {
	ID                 types.ColumnID
	Op                 AggOp
	Arg                Expr // nil when Star
	Star               bool
	Distinct           bool
	AllowPrecisionLoss bool
}

// GroupBy groups by GroupCols (plain input columns; the binder projects
// complex grouping expressions first) and computes aggregates. Output
// columns are GroupCols then the aggregate IDs. A GroupBy with no
// GroupCols is a scalar aggregation producing exactly one row.
type GroupBy struct {
	Input     Node
	GroupCols []types.ColumnID
	Aggs      []AggCol
}

// Columns implements Node.
func (g *GroupBy) Columns() []types.ColumnID {
	out := append([]types.ColumnID(nil), g.GroupCols...)
	for _, a := range g.Aggs {
		out = append(out, a.ID)
	}
	return out
}

// Inputs implements Node.
func (g *GroupBy) Inputs() []Node { return []Node{g.Input} }

// SetInput implements Node.
func (g *GroupBy) SetInput(i int, n Node) { g.Input = n }

func (g *GroupBy) opName() string { return "GroupBy" }

// UnionAll concatenates the rows of its inputs. Output column i of the
// union corresponds positionally to column i of every child.
type UnionAll struct {
	Children []Node
	Cols     []types.ColumnID
}

// Columns implements Node.
func (u *UnionAll) Columns() []types.ColumnID { return u.Cols }

// Inputs implements Node.
func (u *UnionAll) Inputs() []Node { return u.Children }

// SetInput implements Node.
func (u *UnionAll) SetInput(i int, n Node) { u.Children[i] = n }

func (u *UnionAll) opName() string { return "UnionAll" }

// SortKey is one ORDER BY key (a plain input column; the binder projects
// complex sort expressions first).
type SortKey struct {
	Col  types.ColumnID
	Desc bool
}

// Sort orders the input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Columns implements Node.
func (s *Sort) Columns() []types.ColumnID { return s.Input.Columns() }

// Inputs implements Node.
func (s *Sort) Inputs() []Node { return []Node{s.Input} }

// SetInput implements Node.
func (s *Sort) SetInput(i int, n Node) { s.Input = n }

func (s *Sort) opName() string { return "Sort" }

// Limit returns up to Count rows after skipping Offset rows.
type Limit struct {
	Input  Node
	Count  int64
	Offset int64
}

// Columns implements Node.
func (l *Limit) Columns() []types.ColumnID { return l.Input.Columns() }

// Inputs implements Node.
func (l *Limit) Inputs() []Node { return []Node{l.Input} }

// SetInput implements Node.
func (l *Limit) SetInput(i int, n Node) { l.Input = n }

func (l *Limit) opName() string { return "Limit" }

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

// Columns implements Node.
func (d *Distinct) Columns() []types.ColumnID { return d.Input.Columns() }

// Inputs implements Node.
func (d *Distinct) Inputs() []Node { return []Node{d.Input} }

// SetInput implements Node.
func (d *Distinct) SetInput(i int, n Node) { d.Input = n }

func (d *Distinct) opName() string { return "Distinct" }

// Values produces literal rows (used for SELECT without FROM and for
// statically-empty relations).
type Values struct {
	Cols []types.ColumnID
	Rows [][]Expr
}

// Columns implements Node.
func (v *Values) Columns() []types.ColumnID { return v.Cols }

// Inputs implements Node.
func (v *Values) Inputs() []Node { return nil }

// SetInput implements Node.
func (v *Values) SetInput(int, Node) { panic("plan: Values has no inputs") }

func (v *Values) opName() string { return "Values" }

// Plan bundles a root node with its column context and the output
// column names in order. Est carries the optimizer's per-operator
// row-count estimates (nil when cost-based planning did not run);
// EXPLAIN renders them as est_rows= and EXPLAIN ANALYZE diffs them
// against actuals.
type Plan struct {
	Ctx      *Context
	Root     Node
	OutNames []string
	Est      map[Node]float64
}
