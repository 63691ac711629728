package engine

import (
	"testing"

	"vdm/internal/types"
)

// aliasEngine loads a two-varchar-column table whose rows are chosen
// to collide under any broken composite-key scheme: plain
// concatenation aliases ('a','bc') with ('ab','c'), and a NUL-byte
// separator aliases ('a\x00','c') with ('a','\x00c'). The typed key
// encoding is length-prefixed and self-delimiting, so all four must
// stay distinct. One exact duplicate of the first row rides along so
// grouping has something real to merge.
func aliasEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table pairs (a varchar, b varchar, n bigint)`)
	rows := []types.Row{
		{types.NewString("a"), types.NewString("bc"), types.NewInt(1)},
		{types.NewString("ab"), types.NewString("c"), types.NewInt(2)},
		{types.NewString("a\x00"), types.NewString("c"), types.NewInt(3)},
		{types.NewString("a"), types.NewString("\x00c"), types.NewInt(4)},
		{types.NewString("a"), types.NewString("bc"), types.NewInt(5)},
	}
	if err := e.db.InsertRows("pairs", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCompositeKeyAliasing pins the distinctness property on every
// executor path that builds composite keys from multiple columns:
// hash aggregation, DISTINCT, and hash-join key matching — at the
// default batch size and at two-row batches.
func TestCompositeKeyAliasing(t *testing.T) {
	e := aliasEngine(t)
	modes := []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"batch2", Options{BatchSize: 2}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			e.SetOptions(m.opts)

			res := mustQuery(t, e, `select a, b, count(*) from pairs group by a, b`)
			if len(res.Rows) != 4 {
				t.Fatalf("group by a, b: %d groups, want 4 (composite keys aliased):\n%v",
					len(res.Rows), res.Rows)
			}
			total := int64(0)
			for _, r := range res.Rows {
				total += r[2].Int()
			}
			if total != 5 {
				t.Fatalf("group counts sum to %d, want 5", total)
			}

			res = mustQuery(t, e, `select distinct a, b from pairs`)
			if len(res.Rows) != 4 {
				t.Fatalf("distinct a, b: %d rows, want 4:\n%v", len(res.Rows), res.Rows)
			}

			// Composite-key self join: only true (a,b) matches may pair.
			// The duplicated ('a','bc') row matches itself and its twin
			// (2x2 = 4 pairs); the other three rows self-match once each.
			res = mustQuery(t, e, `select count(*) from pairs p1
			    inner join pairs p2 on p1.a = p2.a and p1.b = p2.b`)
			if got := res.Rows[0][0].Int(); got != 7 {
				t.Fatalf("composite self-join pairs = %d, want 7", got)
			}
		})
	}
}
