package exec

import (
	"fmt"
	"strings"
	"testing"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// The row join battery checks joinIter against a brute-force nested
// loop written here with its own three-valued logic: every join kind,
// both build sides, keyless / one-key / composite-key conditions with
// NULL keys, and residuals that are absent, non-equi, or NULL-yielding.

// nv is a nullable int: nil is NULL.
type nv = *int64

func iv(i int64) nv { return &i }

// Both inputs have three int columns: k1, k2 (join keys) and a payload
// (v on the left, w on the right) that the residuals and NOT IN read.
var (
	rjLeft = [][3]nv{
		{iv(1), iv(1), iv(5)},
		{iv(1), iv(2), nil},
		{iv(2), iv(1), iv(3)},
		{nil, iv(1), iv(4)},
		{iv(3), nil, iv(0)},
		{iv(2), iv(1), nil},
		{iv(4), iv(4), iv(7)},
		{iv(1), iv(1), iv(6)},
	}
	rjRight = [][3]nv{
		{iv(1), iv(1), iv(6)},
		{iv(1), iv(1), iv(0)},
		{iv(2), iv(1), nil},
		{iv(1), iv(2), iv(2)},
		{nil, iv(2), iv(9)},
		{iv(3), nil, iv(1)},
		{iv(2), iv(1), iv(8)},
		{iv(5), iv(5), iv(0)},
		{iv(1), iv(1), iv(5)},
	}
)

// tv is a three-valued truth value.
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvNull
)

func tvCmp(a, b nv, f func(a, b int64) bool) tv {
	if a == nil || b == nil {
		return tvNull
	}
	if f(*a, *b) {
		return tvTrue
	}
	return tvFalse
}

func tvAnd(a, b tv) tv {
	switch {
	case a == tvFalse || b == tvFalse:
		return tvFalse
	case a == tvNull || b == tvNull:
		return tvNull
	}
	return tvTrue
}

func tvOr(a, b tv) tv {
	switch {
	case a == tvTrue || b == tvTrue:
		return tvTrue
	case a == tvNull || b == tvNull:
		return tvNull
	}
	return tvFalse
}

func eq(a, b int64) bool { return a == b }
func lt(a, b int64) bool { return a < b }

// rjCond is one join condition: equi-keys over k1 (and k2) plus a
// residual, 0 none, 1 `l.v < r.w`, 2 `l.v < r.w OR r.w = 0` (NULL when
// v is NULL and w is non-zero, TRUE when w is 0 whatever v is).
type rjCond struct {
	keys, residual int
}

func (c rjCond) String() string {
	return fmt.Sprintf("keys=%d/residual=%d", c.keys, c.residual)
}

// eval is the oracle's truth value of the condition on (l, r).
func (c rjCond) eval(l, r [3]nv) tv {
	out := tvTrue
	for k := 0; k < c.keys; k++ {
		out = tvAnd(out, tvCmp(l[k], r[k], eq))
	}
	switch c.residual {
	case 1:
		out = tvAnd(out, tvCmp(l[2], r[2], lt))
	case 2:
		out = tvAnd(out, tvOr(tvCmp(l[2], r[2], lt), tvCmp(r[2], iv(0), eq)))
	}
	return out
}

// exprs renders the condition's conjuncts over the two scans.
func (c rjCond) exprs(ls, rs *plan.Scan) []plan.Expr {
	col := func(s *plan.Scan, i int) plan.Expr { return &plan.ColRef{ID: s.Cols[i], Typ: types.TInt} }
	bin := func(op string, l, r plan.Expr) plan.Expr { return &plan.Bin{Op: op, L: l, R: r, Typ: types.TBool} }
	var out []plan.Expr
	for k := 0; k < c.keys; k++ {
		out = append(out, bin("=", col(ls, k), col(rs, k)))
	}
	switch c.residual {
	case 1:
		out = append(out, bin("<", col(ls, 2), col(rs, 2)))
	case 2:
		out = append(out, bin("OR", bin("<", col(ls, 2), col(rs, 2)),
			bin("=", col(rs, 2), &plan.Const{Val: types.NewInt(0)})))
	}
	return out
}

// rjKind is a join kind under test; notIn marks the null-aware anti
// join `v NOT IN (select w ... where <cond>)`.
type rjKind struct {
	kind  plan.JoinKind
	notIn bool
}

func (k rjKind) String() string {
	if k.notIn {
		return "NotIn"
	}
	return k.kind.String()
}

// rjOracle computes the expected output: build-right order (probe rows
// in left order, their matches in right order) unless buildLeft, where
// matches come per right row in left order and LEFT OUTER's unmatched
// left rows follow in left order.
func rjOracle(k rjKind, c rjCond, buildLeft bool) [][]nv {
	var out [][]nv
	cat := func(l, r [3]nv) []nv { return []nv{l[0], l[1], l[2], r[0], r[1], r[2]} }
	ext := func(l [3]nv) []nv { return []nv{l[0], l[1], l[2], nil, nil, nil} }
	switch {
	case k.notIn:
		for _, l := range rjLeft {
			keep := true
			for _, r := range rjRight {
				if c.eval(l, r) == tvTrue && (l[2] == nil || r[2] == nil || *r[2] == *l[2]) {
					keep = false
				}
			}
			if keep {
				out = append(out, l[:])
			}
		}
	case k.kind == plan.SemiJoin || k.kind == plan.AntiJoin:
		for _, l := range rjLeft {
			hit := false
			for _, r := range rjRight {
				hit = hit || c.eval(l, r) == tvTrue
			}
			if hit == (k.kind == plan.SemiJoin) {
				out = append(out, l[:])
			}
		}
	case buildLeft:
		matched := make([]bool, len(rjLeft))
		for _, r := range rjRight {
			for i, l := range rjLeft {
				if c.eval(l, r) == tvTrue {
					matched[i] = true
					out = append(out, cat(l, r))
				}
			}
		}
		for i, l := range rjLeft {
			if k.kind == plan.LeftOuterJoin && !matched[i] {
				out = append(out, ext(l))
			}
		}
	default:
		for _, l := range rjLeft {
			hit := false
			for _, r := range rjRight {
				if k.kind == plan.CrossJoin || c.eval(l, r) == tvTrue {
					hit = true
					out = append(out, cat(l, r))
				}
			}
			if k.kind == plan.LeftOuterJoin && !hit {
				out = append(out, ext(l))
			}
		}
	}
	return out
}

// rjEnv loads the two inputs into storage tables l and r.
func rjEnv(t *testing.T) (*storage.DB, *plan.Context, *plan.Scan, *plan.Scan) {
	t.Helper()
	db := storage.NewDB()
	ctx := plan.NewContext()
	scan := func(name string, data [][3]nv, cols [3]string) *plan.Scan {
		var schema types.Schema
		for _, c := range cols {
			schema = append(schema, types.Column{Name: c, Type: types.TInt})
		}
		if _, err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
		var rows []types.Row
		for _, d := range data {
			row := make(types.Row, 3)
			for i, v := range d {
				if v == nil {
					row[i] = types.NewNull(types.TInt)
				} else {
					row[i] = types.NewInt(*v)
				}
			}
			rows = append(rows, row)
		}
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		s := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: schema}, Instance: ctx.NewInstance()}
		for ord, c := range cols {
			s.Cols = append(s.Cols, ctx.NewColumn(name+"."+c, types.TInt))
			s.Ords = append(s.Ords, ord)
		}
		return s
	}
	return db, ctx, scan("l", rjLeft, [3]string{"k1", "k2", "v"}), scan("r", rjRight, [3]string{"k1", "k2", "w"})
}

func rjRender(rows [][]nv) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if v == nil {
				b.WriteString("NULL")
			} else {
				fmt.Fprint(&b, *v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rjRenderRows(rows []types.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if v.IsNull() {
				b.WriteString("NULL")
			} else {
				fmt.Fprint(&b, v.Int())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRowJoinMatchesNestedLoopOracle runs every kind, condition and
// build-side request through the operator and compares rows and order
// with the oracle, and pins EXPLAIN ANALYZE's build_rows and mem_bytes:
// building right with keys counts the rows it indexed (no NULL key,
// and for NOT IN no NULL y), every other build counts all of its rows,
// and every drained build row is metered.
func TestRowJoinMatchesNestedLoopOracle(t *testing.T) {
	kinds := []rjKind{
		{kind: plan.InnerJoin}, {kind: plan.LeftOuterJoin}, {kind: plan.SemiJoin},
		{kind: plan.AntiJoin}, {kind: plan.AntiJoin, notIn: true}, {kind: plan.CrossJoin},
	}
	sides := []string{"default", "BuildLeft", "limited-left"}
	for _, k := range kinds {
		for keys := 0; keys <= 2; keys++ {
			for residual := 0; residual <= 2; residual++ {
				c := rjCond{keys: keys, residual: residual}
				if k.kind == plan.CrossJoin && (keys > 0 || residual > 0) {
					continue
				}
				for _, side := range sides {
					t.Run(fmt.Sprintf("%s/%s/%s", k, c, side), func(t *testing.T) {
						rjCheck(t, k, c, side)
					})
				}
			}
		}
	}
}

func rjCheck(t *testing.T, k rjKind, c rjCond, side string) {
	db, ctx, ls, rs := rjEnv(t)
	var left plan.Node = ls
	if side == "limited-left" {
		left = &plan.Limit{Input: ls, Count: 100}
	}
	j := &plan.Join{Kind: k.kind, Left: left, Right: rs, BuildLeft: side == "BuildLeft"}
	conds := c.exprs(ls, rs)
	if k.notIn {
		// x = y sits after the correlation keys: the operator finds it by
		// Join.NotIn, not by position.
		y := &plan.ColRef{ID: rs.Cols[2], Typ: types.TInt}
		cmp := &plan.Bin{Op: "=", L: &plan.ColRef{ID: ls.Cols[2], Typ: types.TInt}, R: y, Typ: types.TBool}
		conds = append(conds[:c.keys:c.keys], append([]plan.Expr{cmp}, conds[c.keys:]...)...)
		j.NotIn = y
	}
	j.Cond = plan.AndAll(conds)

	b := NewBuilder(ctx, db, db.CurrentTS())
	b.EnableAnalyze()
	got, err := b.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	equi := c.keys > 0
	buildLeft := equi && side != "default" && (k.kind == plan.InnerJoin || k.kind == plan.LeftOuterJoin)
	if g, w := rjRenderRows(got), rjRender(rjOracle(k, c, buildLeft)); g != w {
		t.Fatalf("rows (buildLeft=%v):\n%s\nwant:\n%s", buildLeft, g, w)
	}

	// Expected build statistics.
	build := rjRight
	if buildLeft {
		build = rjLeft
	}
	indexed := int64(len(build))
	if !buildLeft && (equi || k.notIn) {
		indexed = 0
		for _, r := range build {
			ok := !k.notIn || r[2] != nil
			for i := 0; i < c.keys; i++ {
				ok = ok && r[i] != nil
			}
			if ok {
				indexed++
			}
		}
	}
	st := b.NodeStats(j)
	if st.BuildRows != indexed || st.BuildBytes != indexed*3*48 {
		t.Errorf("build_rows=%d build_bytes=%d, want %d and %d", st.BuildRows, st.BuildBytes, indexed, indexed*3*48)
	}
	if want := int64(len(build)) * 3 * 48; st.MemBytes != want {
		t.Errorf("mem_bytes=%d, want %d (every drained build row)", st.MemBytes, want)
	}
	if st.Mode != "row" {
		t.Errorf("mode=%q", st.Mode)
	}
}
