package sql

import (
	"fmt"
	"strconv"
	"strings"

	"vdm/internal/types"
)

// RenderQuery prints a query body back to SQL text. Round-tripping
// through the parser yields an equivalent AST.
func RenderQuery(q QueryExpr) string {
	var r renderer
	r.query(q)
	return r.b.String()
}

// ExprString renders an expression back to SQL-ish text for plan display
// and error messages.
func ExprString(e Expr) string {
	var r renderer
	r.expr(e)
	return r.b.String()
}

// Fingerprint renders q as its statement shape: the text RenderQuery
// gives, with every number and string literal lifted into a numbered
// slot written $n:<type>, where the type carries a decimal's scale.
// Equal literals of one type share a slot, so the fingerprint records
// which literals are equal and two literals in different slots differ
// in text. NULL, TRUE and FALSE, LIMIT and OFFSET operands, and ORDER
// BY or GROUP BY items that are bare literals (positional references)
// stay in the text. Fingerprint sets the Slot of every lifted Lit in q
// and returns the lifted values by slot; vals[0] is unused.
func Fingerprint(q QueryExpr) (key string, vals []types.Value) {
	r := renderer{lift: true, vals: make([]types.Value, 1, 4)}
	r.query(q)
	return r.b.String(), r.vals
}

// A renderer writes SQL text. With lift set it lifts literals into slots
// as it goes (Fingerprint).
type renderer struct {
	b     strings.Builder
	lift  bool
	vals  []types.Value       // lifted values by slot
	slots map[types.Value]int // value -> slot, allocated on the first lift
}

// reservedWords are the upper-cased keywords the parser recognizes;
// identifiers spelling one of them must be rendered double-quoted to
// re-parse as identifiers.
var reservedWords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(
		`ALL ALLOW_PRECISION_LOSS AND AS ASC BETWEEN BIGINT BOOL BOOLEAN BY
		 CASE CHAR CREATE CROSS DATE DECIMAL DELETE DESC DISTINCT DOUBLE
		 DROP ELSE END EXACT EXISTS EXPLAIN EXPRESSION EXPRESSION_MACRO
		 FALSE FLOAT FOREIGN FROM GROUP HAVING IN INNER INSERT INT INTEGER
		 INTO IS JOIN KEY LEFT LIMIT MACROS MANY NOT NULL NUMERIC NVARCHAR
		 OFFSET ON ONE OR ORDER OUTER PRIMARY RAW REAL REFERENCES SELECT
		 SET SMALLINT STRING TABLE TEXT THEN TO TRUE UNION UNIQUE UPDATE
		 VALUES VARCHAR VIEW WHEN WHERE WITH`) {
		reservedWords[w] = true
	}
}

// quoteIdent renders an identifier so it re-parses to the same name:
// bare when it lexes as a single non-reserved identifier token,
// double-quoted otherwise. (Quoted identifiers cannot contain a double
// quote — the lexer has no escape for it — so no name the parser can
// produce is unrepresentable.)
func quoteIdent(name string) string {
	if isBareIdent(name) && !reservedWords[strings.ToUpper(name)] {
		return name
	}
	return `"` + name + `"`
}

func isBareIdent(name string) bool {
	for i, r := range name {
		if i == 0 {
			if !isIdentStart(r) {
				return false
			}
		} else if !isIdentPart(r) {
			return false
		}
	}
	return name != ""
}

// quoteString renders a string literal with embedded single quotes
// doubled, the lexer's escape convention.
func quoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func (r *renderer) query(q QueryExpr) {
	switch q := q.(type) {
	case *UnionAll:
		r.query(q.Left)
		r.b.WriteString(" union all ")
		r.query(q.Right)
	case *Select:
		r.sel(q)
	}
}

// fixed renders e with lifting off: the operand's value shapes the plan
// (a LIMIT count, a positional ORDER BY), so it belongs to the shape.
func (r *renderer) fixed(e Expr) {
	saved := r.lift
	r.lift = false
	r.expr(e)
	r.lift = saved
}

// item renders an ORDER BY or GROUP BY item: a bare literal there is a
// position, not a value.
func (r *renderer) item(e Expr) {
	if _, ok := e.(*Lit); ok {
		r.fixed(e)
		return
	}
	r.expr(e)
}

func (r *renderer) sel(s *Select) {
	b := &r.b
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			fmt.Fprintf(b, "%s.*", quoteIdent(it.StarTable))
		case it.Star:
			b.WriteByte('*')
		default:
			r.expr(it.Expr)
			if it.Alias != "" {
				fmt.Fprintf(b, " as %s", quoteIdent(it.Alias))
			}
		}
	}
	if s.From != nil {
		b.WriteString(" from ")
		r.table(s.From)
	}
	if s.Where != nil {
		b.WriteString(" where ")
		r.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			r.item(g)
		}
	}
	if s.Having != nil {
		b.WriteString(" having ")
		r.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			r.item(o.Expr)
			if o.Desc {
				b.WriteString(" desc")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" limit ")
		r.fixed(s.Limit)
	}
	if s.Offset != nil {
		b.WriteString(" offset ")
		r.fixed(s.Offset)
	}
}

func (r *renderer) table(te TableExpr) {
	b := &r.b
	switch te := te.(type) {
	case *TableRef:
		b.WriteString(quoteIdent(te.Name))
		if te.Alias != "" {
			fmt.Fprintf(b, " %s", quoteIdent(te.Alias))
		}
	case *SubqueryRef:
		b.WriteByte('(')
		r.query(te.Query)
		b.WriteByte(')')
		if te.Alias != "" {
			fmt.Fprintf(b, " %s", quoteIdent(te.Alias))
		}
	case *JoinExpr:
		r.table(te.Left)
		switch te.Kind {
		case JoinInner:
			b.WriteString(" inner")
		case JoinLeftOuter:
			b.WriteString(" left outer")
		case JoinCross:
			b.WriteString(" cross")
		}
		if te.Card.Specified() {
			b.WriteByte(' ')
			b.WriteString(strings.ToLower(te.Card.String()))
		}
		if te.CaseJoin {
			b.WriteString(" case")
		}
		b.WriteString(" join ")
		// Parenthesize joined right sides for re-parse fidelity.
		if _, isJoin := te.Right.(*JoinExpr); isJoin {
			b.WriteByte('(')
			r.table(te.Right)
			b.WriteByte(')')
		} else {
			r.table(te.Right)
		}
		if te.On != nil {
			b.WriteString(" on ")
			r.expr(te.On)
		}
	}
}

// list renders xs separated by ", ".
func (r *renderer) list(xs []Expr) {
	for i, x := range xs {
		if i > 0 {
			r.b.WriteString(", ")
		}
		r.expr(x)
	}
}

func (r *renderer) expr(e Expr) {
	b := &r.b
	switch e := e.(type) {
	case nil:
		b.WriteString("<nil>")
	case *ColRef:
		b.WriteString(e.String())
	case *Lit:
		r.lit(e)
	case *BinOp:
		b.WriteByte('(')
		r.expr(e.L)
		b.WriteString(" " + e.Op + " ")
		r.expr(e.R)
		b.WriteByte(')')
	case *UnOp:
		b.WriteString(e.Op + " ")
		r.expr(e.E)
	case *IsNull:
		r.expr(e.E)
		if e.Not {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *InList:
		r.expr(e.E)
		if e.Not {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		r.list(e.List)
		b.WriteByte(')')
	case *Between:
		r.expr(e.E)
		b.WriteString(" BETWEEN ")
		r.expr(e.Lo)
		b.WriteString(" AND ")
		r.expr(e.Hi)
	case *Exists:
		if e.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		r.query(e.Query)
		b.WriteByte(')')
	case *InSubquery:
		r.expr(e.E)
		if e.Not {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		r.query(e.Query)
		b.WriteByte(')')
	case *FuncCall:
		b.WriteString(quoteIdent(e.Name))
		if e.Star {
			b.WriteString("(*)")
			return
		}
		b.WriteByte('(')
		if e.Distinct {
			b.WriteString("DISTINCT ")
		}
		r.list(e.Args)
		b.WriteByte(')')
	case *CaseExpr:
		b.WriteString("CASE")
		for _, w := range e.Whens {
			b.WriteString(" WHEN ")
			r.expr(w.Cond)
			b.WriteString(" THEN ")
			r.expr(w.Then)
		}
		if e.Else != nil {
			b.WriteString(" ELSE ")
			r.expr(e.Else)
		}
		b.WriteString(" END")
	case *AllowPrecisionLoss:
		b.WriteString("ALLOW_PRECISION_LOSS(")
		r.expr(e.E)
		b.WriteByte(')')
	case *MacroRef:
		b.WriteString("EXPRESSION_MACRO(" + e.Name + ")")
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// lit renders a literal, lifting it into a slot when the renderer lifts
// and the literal is a number or a string.
func (r *renderer) lit(e *Lit) {
	v := e.Val
	if !r.lift || v.IsNull() || v.Typ == types.TBool {
		if v.Typ == types.TString && !v.IsNull() {
			r.b.WriteString(quoteString(v.Str()))
		} else {
			r.b.WriteString(v.String())
		}
		return
	}
	e.Slot = r.slotOf(v)
	r.b.WriteByte('$')
	r.b.WriteString(strconv.Itoa(e.Slot))
	r.b.WriteByte(':')
	// A decimal's type names its scale, which the plan's result types
	// depend on.
	if v.Typ == types.TDecimal {
		r.b.WriteString("decimal(")
		r.b.WriteString(strconv.Itoa(int(v.Decimal().Scale)))
		r.b.WriteByte(')')
	} else {
		r.b.WriteString(strings.ToLower(v.Typ.String()))
	}
}

// slotOf returns v's slot, opening one for a new value. Value equality is
// literal equality here: the parser's numbers and strings render alike
// exactly when their values (type, payload, decimal scale) are equal.
func (r *renderer) slotOf(v types.Value) int {
	if s, ok := r.slots[v]; ok {
		return s
	}
	if r.slots == nil {
		r.slots = map[types.Value]int{}
	}
	r.vals = append(r.vals, v)
	s := len(r.vals) - 1
	r.slots[v] = s
	return s
}
