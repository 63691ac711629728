package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// ErrTooDeep reports that a statement nests expressions or subqueries
// beyond MaxNestingDepth. A recursive-descent parser burns a Go stack
// frame per nesting level, so without this guard a few thousand open
// parentheses crash the process with a stack overflow instead of
// returning an error. Match with errors.Is.
var ErrTooDeep = errors.New("sql: statement nesting too deep")

// MaxNestingDepth bounds the recursion depth of the parser (parenthesis
// levels, NOT/unary chains, subquery nesting — whichever is deepest).
const MaxNestingDepth = 1000

// Parser is a recursive-descent parser for the dialect.
type Parser struct {
	toks  []Token
	pos   int
	depth int
}

// enterNesting counts one level of parser recursion; it fails with
// ErrTooDeep past MaxNestingDepth. Every call that returns nil must be
// paired with leaveNesting.
func (p *Parser) enterNesting() error {
	p.depth++
	if p.depth > MaxNestingDepth {
		return fmt.Errorf("%w (limit %d)", ErrTooDeep, MaxNestingDepth)
	}
	return nil
}

func (p *Parser) leaveNesting() { p.depth-- }

// NewParser tokenizes src and returns a parser.
func NewParser(src string) (*Parser, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Parse parses a single statement from src. A trailing semicolon is
// allowed.
func Parse(src string) (Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input at %q", p.peek().Text)
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.atEOF() {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptOp(";") {
			break
		}
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input at %q", p.peek().Text)
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression (used for DAC policy
// filters and tests).
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input at %q", p.peek().Text)
	}
	return e, nil
}

// ParseQuery parses a query (SELECT or UNION ALL chain).
func ParseQuery(src string) (QueryExpr, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	q, ok := st.(*Query)
	if !ok {
		return nil, fmt.Errorf("sql: not a query")
	}
	return q.Body, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && t.Upper == kw
}

// peekKeywords reports whether the next tokens are the given keywords.
func (p *Parser) peekKeywords(kws ...string) bool {
	for i, kw := range kws {
		if p.pos+i >= len(p.toks) {
			return false
		}
		t := p.toks[p.pos+i]
		if t.Kind != TokIdent || t.Upper != kw {
			return false
		}
	}
	return true
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) peekOp(op string) bool {
	t := p.peek()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sql: expected %q, found %q", op, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return Token{}, fmt.Errorf("sql: expected identifier, found %q", t.Text)
	}
	if reserved[t.Upper] {
		return Token{}, fmt.Errorf("sql: reserved word %q used as identifier", t.Text)
	}
	p.pos++
	return t, nil
}

// reserved words that cannot be identifiers (kept small; the dialect is
// permissive like HANA's).
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"HAVING": true, "LIMIT": true, "OFFSET": true, "UNION": true, "JOIN": true,
	"INNER": true, "LEFT": true, "OUTER": true, "CROSS": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true, "AS": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"INSERT": true, "INTO": true, "VALUES": true, "CREATE": true, "TABLE": true,
	"VIEW": true, "DROP": true, "DELETE": true, "UPDATE": true, "SET": true,
	"DISTINCT": true, "BETWEEN": true, "IN": true, "IS": true, "BY": true,
	"WITH": true,
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("CREATE"):
		p.next()
		switch {
		case p.acceptKeyword("TABLE"):
			return p.parseCreateTable()
		case p.acceptKeyword("VIEW"):
			return p.parseCreateView()
		}
		return nil, fmt.Errorf("sql: expected TABLE or VIEW after CREATE")
	case p.peekKeyword("DROP"):
		p.next()
		isView := false
		switch {
		case p.acceptKeyword("TABLE"):
		case p.acceptKeyword("VIEW"):
			isView = true
		default:
			return nil, fmt.Errorf("sql: expected TABLE or VIEW after DROP")
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name.Text, View: isView}, nil
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("EXPLAIN"):
		p.next()
		raw := p.acceptKeyword("RAW")
		body, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		return &Explain{Raw: raw, Body: body}, nil
	case p.peekKeyword("SELECT") || p.peekOp("("):
		body, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		return &Query{Body: body}, nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q", p.peek().Text)
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name.Text}
	for {
		switch {
		case p.peekKeywords("PRIMARY", "KEY"):
			p.pos += 2
			cols, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			ct.Keys = append(ct.Keys, KeyDef{Columns: cols, Primary: true})
		case p.peekKeyword("UNIQUE"):
			p.next()
			cols, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			ct.Keys = append(ct.Keys, KeyDef{Columns: cols})
		case p.peekKeywords("FOREIGN", "KEY"):
			p.pos += 2
			cols, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			// optional (col, ...) after referenced table
			if p.peekOp("(") {
				if _, err := p.parseNameList(); err != nil {
					return nil, err
				}
			}
			ct.ForeignKeys = append(ct.ForeignKeys, FKDef{Columns: cols, RefTable: ref.Text})
		default:
			col, err := p.parseColumnDef(ct)
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseColumnDef(ct *CreateTable) (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typ, err := p.parseType()
	if err != nil {
		return ColumnDef{}, err
	}
	col := ColumnDef{Name: name.Text, Type: typ}
	for {
		switch {
		case p.peekKeywords("NOT", "NULL"):
			p.pos += 2
			col.NotNull = true
		case p.peekKeywords("PRIMARY", "KEY"):
			p.pos += 2
			col.NotNull = true
			ct.Keys = append(ct.Keys, KeyDef{Columns: []string{col.Name}, Primary: true})
		case p.peekKeyword("UNIQUE"):
			p.next()
			ct.Keys = append(ct.Keys, KeyDef{Columns: []string{col.Name}})
		case p.peekKeyword("REFERENCES"):
			p.next()
			ref, err := p.expectIdent()
			if err != nil {
				return ColumnDef{}, err
			}
			if p.peekOp("(") {
				if _, err := p.parseNameList(); err != nil {
					return ColumnDef{}, err
				}
			}
			ct.ForeignKeys = append(ct.ForeignKeys, FKDef{Columns: []string{col.Name}, RefTable: ref.Text})
		default:
			return col, nil
		}
	}
}

func (p *Parser) parseType() (types.Type, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return 0, fmt.Errorf("sql: expected type name, found %q", t.Text)
	}
	p.next()
	skipParens := func() error {
		if p.acceptOp("(") {
			for !p.peekOp(")") {
				if p.atEOF() {
					return fmt.Errorf("sql: unterminated type parameters")
				}
				p.next()
			}
			p.next()
		}
		return nil
	}
	var typ types.Type
	switch t.Upper {
	case "BIGINT", "INT", "INTEGER", "SMALLINT":
		typ = types.TInt
	case "DOUBLE", "FLOAT", "REAL":
		typ = types.TFloat
	case "VARCHAR", "NVARCHAR", "CHAR", "TEXT", "STRING":
		typ = types.TString
	case "BOOLEAN", "BOOL":
		typ = types.TBool
	case "DECIMAL", "NUMERIC":
		typ = types.TDecimal
	case "DATE":
		typ = types.TDate
	default:
		return 0, fmt.Errorf("sql: unknown type %q", t.Text)
	}
	if err := skipParens(); err != nil {
		return 0, err
	}
	return typ, nil
}

func (p *Parser) parseNameList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, n.Text)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	body, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	cv := &CreateView{Name: name.Text, Query: body}
	if p.peekKeywords("WITH", "EXPRESSION", "MACROS") {
		p.pos += 3
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			mname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cv.Macros = append(cv.Macros, MacroDef{Name: mname.Text, Expr: e})
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return cv, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name.Text}
	if p.peekOp("(") {
		cols, err := p.parseNameList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name.Text}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: name.Text}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col.Text, Expr: e})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

// parseQueryExpr parses select [UNION ALL select]* with optional trailing
// ORDER BY / LIMIT / OFFSET, which — when the body is a union — is
// desugared into an enclosing SELECT * over the union.
func (p *Parser) parseQueryExpr() (QueryExpr, error) {
	if err := p.enterNesting(); err != nil {
		return nil, err
	}
	defer p.leaveNesting()
	body, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.peekKeywords("UNION", "ALL") {
		p.pos += 2
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		body = &UnionAll{Left: body, Right: right}
	}
	if u, ok := body.(*UnionAll); ok && (p.peekKeyword("ORDER") || p.peekKeyword("LIMIT") || p.peekKeyword("OFFSET")) {
		wrap := &Select{
			Items: []SelectItem{{Star: true}},
			From:  &SubqueryRef{Query: u, Alias: "__u"},
		}
		if err := p.parseOrderLimit(wrap); err != nil {
			return nil, err
		}
		return wrap, nil
	}
	if sel, ok := body.(*Select); ok {
		if err := p.parseOrderLimit(sel); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// parseQueryTerm parses one SELECT block or a parenthesized query.
func (p *Parser) parseQueryTerm() (QueryExpr, error) {
	if p.acceptOp("(") {
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	return p.parseSelect()
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.peekKeywords("GROUP", "BY") {
		p.pos += 2
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

func (p *Parser) parseOrderLimit(sel *Select) error {
	if p.peekKeywords("ORDER", "BY") {
		p.pos += 2
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Offset = e
	}
	return nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* lookahead
	if p.peek().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" &&
		!reserved[p.peek().Upper] {
		t := p.next()
		p.pos += 2
		return SelectItem{Star: true, StarTable: t.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.Text
	} else if p.peek().Kind == TokIdent && !reserved[p.peek().Upper] {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseTableExpr parses the FROM clause: comma-separated cross joins of
// join chains.
func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.acceptOp(",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &JoinExpr{Kind: JoinCross, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseJoinChain() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind, card, caseJoin, isJoin, err := p.parseJoinHead()
		if err != nil {
			return nil, err
		}
		if !isJoin {
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Kind: kind, Card: card, CaseJoin: caseJoin, Left: left, Right: right}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

// parseJoinHead parses the join keywords:
//
//	[INNER | LEFT [OUTER] | CROSS] [cardEnd TO cardEnd] [CASE] JOIN
//
// returning isJoin=false if the next tokens do not start a join.
func (p *Parser) parseJoinHead() (kind JoinKind, card CardSpec, caseJoin, isJoin bool, err error) {
	start := p.pos
	kind = JoinInner
	switch {
	case p.acceptKeyword("INNER"):
	case p.acceptKeyword("LEFT"):
		kind = JoinLeftOuter
		p.acceptKeyword("OUTER")
	case p.acceptKeyword("CROSS"):
		kind = JoinCross
	case p.peekKeyword("JOIN") || p.peekCardStart() || p.peekKeywords("CASE", "JOIN"):
		// bare JOIN / MANY TO ONE JOIN / CASE JOIN
	default:
		return 0, CardSpec{}, false, false, nil
	}
	if p.peekCardStart() {
		card.Left, err = p.parseCardEnd()
		if err != nil {
			return 0, CardSpec{}, false, false, err
		}
		if err = p.expectKeyword("TO"); err != nil {
			return 0, CardSpec{}, false, false, err
		}
		card.Right, err = p.parseCardEnd()
		if err != nil {
			return 0, CardSpec{}, false, false, err
		}
	}
	if p.acceptKeyword("CASE") {
		caseJoin = true
	}
	if !p.acceptKeyword("JOIN") {
		p.pos = start
		return 0, CardSpec{}, false, false, nil
	}
	return kind, card, caseJoin, true, nil
}

func (p *Parser) peekCardStart() bool {
	return p.peekKeyword("MANY") || p.peekKeywords("ONE", "TO") ||
		p.peekKeywords("EXACT", "ONE")
}

func (p *Parser) parseCardEnd() (CardEnd, error) {
	switch {
	case p.acceptKeyword("MANY"):
		return CardMany, nil
	case p.peekKeywords("EXACT", "ONE"):
		p.pos += 2
		return CardExactOne, nil
	case p.acceptKeyword("ONE"):
		return CardOne, nil
	}
	return 0, fmt.Errorf("sql: expected MANY, ONE, or EXACT ONE, found %q", p.peek().Text)
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.acceptOp("(") {
		// Either a subquery or a parenthesized join expression.
		if p.peekKeyword("SELECT") || p.peekOp("(") {
			save := p.pos
			q, err := p.parseQueryExpr()
			if err == nil {
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				alias := ""
				p.acceptKeyword("AS")
				if p.peek().Kind == TokIdent && !reserved[p.peek().Upper] {
					alias = p.next().Text
				}
				return &SubqueryRef{Query: q, Alias: alias}, nil
			}
			p.pos = save
		}
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: name.Text}
	p.acceptKeyword("AS")
	if p.peek().Kind == TokIdent && !reserved[p.peek().Upper] &&
		!p.peekCardStart() && !p.peekKeyword("CASE") {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// --- expressions -----------------------------------------------------

// parseExpr parses a full expression (lowest precedence: OR).
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	// Both NOT chains and parenthesized expressions recurse through
	// here (the latter via parsePrimary -> parseExpr), so this one
	// checkpoint bounds every scalar-expression nesting path.
	if err := p.enterNesting(); err != nil {
		return nil, err
	}
	defer p.leaveNesting()
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("=") || p.peekOp("<>") || p.peekOp("!=") || p.peekOp("<") ||
			p.peekOp("<=") || p.peekOp(">") || p.peekOp(">="):
			op := p.next().Text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: op, L: l, R: r}
		case p.peekKeyword("IS"):
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{E: l, Not: not}
		case p.peekKeyword("BETWEEN"):
			p.next()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Between{E: l, Lo: lo, Hi: hi}
		case p.peekKeyword("IN") || p.peekKeywords("NOT", "IN"):
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("IN"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			if p.peekKeyword("SELECT") {
				q, err := p.parseQueryExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				l = &InSubquery{E: l, Query: q, Not: not}
				continue
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			l = &InList{E: l, List: list, Not: not}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("+"), p.peekOp("-"), p.peekOp("||"):
			op := p.next().Text
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("*"), p.peekOp("/"):
			op := p.next().Text
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enterNesting(); err != nil {
		return nil, err
	}
	defer p.leaveNesting()
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Lit); ok && lit.Val.Typ == types.TInt {
			return &Lit{Val: types.NewInt(-lit.Val.Int())}, nil
		}
		return &UnOp{Op: "-", E: e}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsRune(t.Text, '.') {
			d, err := decimal.Parse(t.Text)
			if err != nil {
				return nil, err
			}
			return &Lit{Val: types.NewDecimal(d)}, nil
		}
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer literal %q", t.Text)
		}
		return &Lit{Val: types.NewInt(v)}, nil
	case TokString:
		p.next()
		return &Lit{Val: types.NewString(t.Text)}, nil
	case TokOp:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		switch t.Upper {
		case "NULL":
			p.next()
			return &Lit{Val: types.NewNull(types.TNull)}, nil
		case "TRUE":
			p.next()
			return &Lit{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Lit{Val: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &Exists{Query: q}, nil
		case "ALLOW_PRECISION_LOSS":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &AllowPrecisionLoss{E: e}, nil
		case "EXPRESSION_MACRO":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &MacroRef{Name: name.Text}, nil
		}
		if reserved[t.Upper] {
			return nil, fmt.Errorf("sql: unexpected keyword %q in expression", t.Text)
		}
		p.next()
		// Function call?
		if p.peekOp("(") {
			return p.parseFuncCall(t)
		}
		// Qualified column reference?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.Text, Name: col.Text}, nil
		}
		return &ColRef{Name: t.Text}, nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q in expression", t.Text)
}

func (p *Parser) parseFuncCall(name Token) (Expr, error) {
	p.next() // (
	fc := &FuncCall{Name: name.Upper}
	if p.acceptOp("*") {
		fc.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptOp(")") {
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
