package sql

import (
	"vdm/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is a column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    types.Type
	NotNull bool
}

// KeyDef is a PRIMARY KEY or UNIQUE constraint in CREATE TABLE.
type KeyDef struct {
	Columns []string
	Primary bool
}

// FKDef is a FOREIGN KEY ... REFERENCES constraint (metadata only).
type FKDef struct {
	Columns  []string
	RefTable string
}

// CreateTable is CREATE TABLE.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	Keys        []KeyDef
	ForeignKeys []FKDef
}

func (*CreateTable) stmt() {}

// MacroDef is one entry of WITH EXPRESSION MACROS (expr AS name, ...).
type MacroDef struct {
	Name string
	Expr Expr
}

// CreateView is CREATE VIEW name AS query [WITH EXPRESSION MACROS (...)].
type CreateView struct {
	Name   string
	Query  QueryExpr
	Macros []MacroDef
}

func (*CreateView) stmt() {}

// DropTable is DROP TABLE / DROP VIEW.
type DropTable struct {
	Name string
	View bool
}

func (*DropTable) stmt() {}

// Insert is INSERT INTO name [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*Insert) stmt() {}

// Delete is DELETE FROM name [WHERE cond].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

// Update is UPDATE name SET col = expr, ... [WHERE cond].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause.
type Assignment struct {
	Column string
	Expr   Expr
}

func (*Update) stmt() {}

// Query wraps a query expression as a statement.
type Query struct {
	Body QueryExpr
}

func (*Query) stmt() {}

// Explain is EXPLAIN [RAW] <query>: show the optimized (or bound) plan
// instead of executing.
type Explain struct {
	Raw  bool
	Body QueryExpr
}

func (*Explain) stmt() {}

// QueryExpr is a query body: a Select or a UnionAll of query bodies.
type QueryExpr interface{ queryExpr() }

// UnionAll is q1 UNION ALL q2.
type UnionAll struct {
	Left, Right QueryExpr
}

func (*UnionAll) queryExpr() {}

// Select is a SELECT block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil for SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil if absent
	Offset   Expr // nil if absent
}

func (*Select) queryExpr() {}

// SelectItem is one projection item: expression with optional alias, or
// a star (optionally table-qualified).
type SelectItem struct {
	Star      bool
	StarTable string // for t.*
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableExpr is a FROM-clause item.
type TableExpr interface{ tableExpr() }

// TableRef references a table or view by name.
type TableRef struct {
	Name  string
	Alias string
}

func (*TableRef) tableExpr() {}

// SubqueryRef is a parenthesized query in FROM.
type SubqueryRef struct {
	Query QueryExpr
	Alias string
}

func (*SubqueryRef) tableExpr() {}

// JoinKind enumerates join types.
type JoinKind uint8

const (
	// JoinInner is INNER JOIN.
	JoinInner JoinKind = iota
	// JoinLeftOuter is LEFT [OUTER] JOIN.
	JoinLeftOuter
	// JoinCross is CROSS JOIN.
	JoinCross
)

// String returns the SQL spelling.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// CardEnd is one endpoint of a join cardinality specification (§7.3):
// how many rows of that side may match one row of the other side.
type CardEnd uint8

const (
	// CardUnspecified means no bound declared.
	CardUnspecified CardEnd = iota
	// CardMany is 1..m (no declared bound).
	CardMany
	// CardOne is 0..1: at most one match.
	CardOne
	// CardExactOne is 1..1: exactly one match.
	CardExactOne
)

// String returns the SQL spelling of the endpoint.
func (c CardEnd) String() string {
	switch c {
	case CardMany:
		return "MANY"
	case CardOne:
		return "ONE"
	case CardExactOne:
		return "EXACT ONE"
	}
	return ""
}

// CardSpec is the full cardinality specification `LEFT TO RIGHT`, e.g.
// MANY TO ONE in `R LEFT OUTER MANY TO ONE JOIN S`.
type CardSpec struct {
	Left, Right CardEnd
}

// Specified reports whether any cardinality was declared.
func (c CardSpec) Specified() bool {
	return c.Left != CardUnspecified || c.Right != CardUnspecified
}

// String returns e.g. "MANY TO ONE".
func (c CardSpec) String() string {
	if !c.Specified() {
		return ""
	}
	return c.Left.String() + " TO " + c.Right.String()
}

// JoinExpr is a join in the FROM clause. CaseJoin marks the paper's CASE
// JOIN extension: an explicit declaration that the join is an
// augmentation self-join whose augmenter must be matched against the
// anchor (§6.3).
type JoinExpr struct {
	Kind     JoinKind
	Card     CardSpec
	CaseJoin bool
	Left     TableExpr
	Right    TableExpr
	On       Expr
}

func (*JoinExpr) tableExpr() {}

// Expr is a scalar expression.
type Expr interface{ expr() }

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table string // "" if unqualified
	Name  string
}

func (*ColRef) expr() {}

// String renders the reference, quoting either part when it would not
// re-parse as a bare identifier.
func (c *ColRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// Lit is a literal value. Slot numbers the literal once Fingerprint has
// lifted it into a statement parameter ($1, $2, ...); 0 means not lifted.
type Lit struct {
	Val  types.Value
	Slot int
}

func (*Lit) expr() {}

// BinOp is a binary operation. Op is one of:
// + - * / || = <> < <= > >= AND OR
type BinOp struct {
	Op   string
	L, R Expr
}

func (*BinOp) expr() {}

// UnOp is unary: - or NOT.
type UnOp struct {
	Op string
	E  Expr
}

func (*UnOp) expr() {}

// IsNull is `expr IS [NOT] NULL`.
type IsNull struct {
	E   Expr
	Not bool
}

func (*IsNull) expr() {}

// InList is `expr [NOT] IN (v1, v2, ...)`.
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InList) expr() {}

// Between is `expr BETWEEN lo AND hi`.
type Between struct {
	E, Lo, Hi Expr
}

func (*Between) expr() {}

// Exists is `[NOT] EXISTS (subquery)`. Supported as a top-level WHERE
// conjunct; the binder unnests it into a semi (or anti) join.
type Exists struct {
	Query QueryExpr
	Not   bool
}

func (*Exists) expr() {}

// InSubquery is `expr [NOT] IN (subquery)`. Supported as a top-level
// WHERE conjunct; the binder unnests it into a semi join (or a
// NULL-aware anti join, honoring NOT IN's three-valued semantics).
type InSubquery struct {
	E     Expr
	Query QueryExpr
	Not   bool
}

func (*InSubquery) expr() {}

// FuncCall is a function or aggregate call. Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool
	Star     bool
}

func (*FuncCall) expr() {}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// AllowPrecisionLoss wraps an aggregate expression, granting the
// optimizer permission to interchange decimal rounding and addition
// inside it (§7.1).
type AllowPrecisionLoss struct {
	E Expr
}

func (*AllowPrecisionLoss) expr() {}

// MacroRef is EXPRESSION_MACRO(name): a reference to an expression macro
// defined by the view in the FROM clause (§7.2).
type MacroRef struct {
	Name string
}

func (*MacroRef) expr() {}

// AggFuncs is the set of aggregate function names.
var AggFuncs = map[string]bool{
	"SUM": true, "COUNT": true, "MIN": true, "MAX": true, "AVG": true,
}
