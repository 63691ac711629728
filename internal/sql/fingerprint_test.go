package sql

import (
	"fmt"
	"strings"
	"testing"

	"vdm/internal/types"
)

func fingerprint(t *testing.T, q string) (string, []types.Value) {
	t.Helper()
	return Fingerprint(parseQ(t, q))
}

func TestFingerprintLiftsLiterals(t *testing.T) {
	key, vals := fingerprint(t, `select a, 'x' from t where b > -5 and c = 12.50 and d = 'it''s' limit 10 offset 2`)
	want := `select a, $1:varchar from t where (((b > $2:bigint) AND (c = $3:decimal(2))) AND (d = $4:varchar)) limit 10 offset 2`
	if key != want {
		t.Fatalf("fingerprint\n got %s\nwant %s", key, want)
	}
	if len(vals) != 5 || vals[2].Int() != -5 || vals[3].String() != "12.50" || vals[4].Str() != "it's" {
		t.Fatalf("vals = %v", vals)
	}
}

func TestFingerprintSameShapeSameKey(t *testing.T) {
	a, _ := fingerprint(t, `select a from t where b > 5 and c in ('x', 'y') and d = 1.25`)
	b, _ := fingerprint(t, `select a from t where b > -700 and c in ('it''s', '$1') and d = 9.99`)
	if a != b {
		t.Fatalf("literal values changed the key:\n%s\n%s", a, b)
	}
}

func TestFingerprintDistinguishesShapes(t *testing.T) {
	base := `select a from t where b > 5 and c in ('x', 'y') order by a limit 10`
	for _, other := range []string{
		`select a from t where b > 5.0 and c in ('x', 'y') order by a limit 10`,    // literal type
		`select a from t where b > 5.00 and c in ('x', 'y') order by a limit 10`,   // decimal scale
		`select a from t where b > 5 and c in ('x', 'y') order by a limit 11`,      // LIMIT stays
		`select a from t where b > 5 and c in ('x', 'y', 'z') order by a limit 10`, // IN-list length
		`select a from t where b > 5 and c in ('x', 'x') order by a limit 10`,      // equal literals share a slot
		`select a from t where b > 5 and c in (5, 'y') order by a limit 10`,        // number vs string
		`select a from t where b > 5 and c in ('x', 'y') order by 1 limit 10`,      // positional ORDER BY stays
		`select a from t where b > 5 and c in ('x', null) order by a limit 10`,     // NULL stays
	} {
		k1, _ := fingerprint(t, base)
		k2, _ := fingerprint(t, other)
		if k1 == k2 {
			t.Errorf("%q and %q share the key %s", base, other, k1)
		}
	}
}

func TestFingerprintStringNeverCollides(t *testing.T) {
	// A string spelling a slot is itself lifted, as a string.
	a, _ := fingerprint(t, `select a from t where b = '$1:bigint'`)
	b, _ := fingerprint(t, `select a from t where b = 1`)
	if a == b {
		t.Fatalf("'$1:bigint' collides with 1: %s", a)
	}
	if strings.Contains(a, "'") {
		t.Fatalf("string literal left in the key: %s", a)
	}
}

func TestFingerprintSetsSlotsAndKeepsFixedLiterals(t *testing.T) {
	body := parseQ(t, `select 1 bid, a from t where a = 1 and b = true order by 2 limit 3`)
	Fingerprint(body)
	sel := body.(*Select)
	if l := sel.Items[0].Expr.(*Lit); l.Slot != 1 {
		t.Errorf("select-list literal slot %d, want 1", l.Slot)
	}
	and := sel.Where.(*BinOp)
	if l := and.L.(*BinOp).R.(*Lit); l.Slot != 1 {
		t.Errorf("equal literal slot %d, want shared slot 1", l.Slot)
	}
	if l := and.R.(*BinOp).R.(*Lit); l.Slot != 0 {
		t.Errorf("TRUE lifted into slot %d", l.Slot)
	}
	if l := sel.OrderBy[0].Expr.(*Lit); l.Slot != 0 {
		t.Errorf("positional ORDER BY lifted into slot %d", l.Slot)
	}
	if l := sel.Limit.(*Lit); l.Slot != 0 {
		t.Errorf("LIMIT lifted into slot %d", l.Slot)
	}
	// Rendering ignores slots: the text is the statement's own.
	if got := RenderQuery(body); !strings.Contains(got, "a = 1") {
		t.Errorf("render after fingerprint: %s", got)
	}
}

func TestFingerprintLongInListSharesSlots(t *testing.T) {
	var list []string
	for i := range 40 {
		list = append(list, fmt.Sprint(i%25))
	}
	_, vals := fingerprint(t, `select a from t where a in (`+strings.Join(list, ", ")+`) and b = 3`)
	if len(vals) != 26 {
		t.Fatalf("%d slots for 25 distinct values", len(vals)-1)
	}
	for s := 1; s < len(vals); s++ {
		if vals[s].Int() != int64(s-1) {
			t.Fatalf("slot %d holds %v", s, vals[s])
		}
	}
}
