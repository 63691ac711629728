package types

import (
	"testing"

	"vdm/internal/decimal"
)

func TestDictViewDecodeBoundaries(t *testing.T) {
	d := NewDictView([]string{"a", "b"}, []string{"x", "y"})
	if d.Size() != 4 {
		t.Fatalf("Size = %d, want 4", d.Size())
	}
	want := []string{"a", "b", "x", "y"}
	for code, w := range want {
		if got := d.Decode(int32(code)); got != w {
			t.Errorf("Decode(%d) = %q, want %q", code, got, w)
		}
	}
	// Empty main: every code resolves in the delta.
	d = NewDictView(nil, []string{"only"})
	if got := d.Decode(0); got != "only" {
		t.Errorf("Decode(0) over empty main = %q", got)
	}
}

// TestDictViewSame pins view identity: the same main and delta slices at
// the same lengths are Same; a grown delta, a fresh delta after a merge,
// or another backing array with equal contents is not.
func TestDictViewSame(t *testing.T) {
	main := []string{"a", "b"}
	delta := make([]string, 1, 4)
	delta[0] = "x"
	v := NewDictView(main, delta)
	if !v.Same(NewDictView(main, delta)) {
		t.Error("views over the same slices are not Same")
	}
	if v.Same(NewDictView(main, append(delta, "y"))) {
		t.Error("a grown delta is Same")
	}
	if v.Same(NewDictView(main, nil)) {
		t.Error("a merged (empty) delta is Same")
	}
	if v.Same(NewDictView([]string{"a", "b"}, delta)) {
		t.Error("an equal copy of main is Same")
	}
	if !NewDictView(main, nil).Same(NewDictView(main, []string{})) {
		t.Error("two empty deltas over one main are not Same")
	}
}

func TestVecSetNullClearsStaleBits(t *testing.T) {
	var v Vec
	// First batch: 130 rows (three bitmap words), all NULL.
	v.Reset(TInt, 130)
	for i := 0; i < 130; i++ {
		v.SetNull(i)
	}
	// Second, smaller batch reusing the vector: no SetNull calls, so no
	// row may read as NULL even though the old bitmap words had bits set.
	v.Reset(TInt, 130)
	for i := 0; i < 130; i++ {
		if v.NullAt(i) {
			t.Fatalf("row %d NULL after Reset with no SetNull", i)
		}
	}
	// Marking one row NULL in a reused word must not resurrect stale
	// bits in the words it grows through.
	v.SetNull(128)
	for i := 0; i < 130; i++ {
		if got, want := v.NullAt(i), i == 128; got != want {
			t.Fatalf("NullAt(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestVecValueBoxing(t *testing.T) {
	var v Vec

	v.Reset(TInt, 2)
	v.I64[0] = 42
	v.SetNull(1)
	if got := v.Value(0); got.Typ != TInt || got.Int() != 42 {
		t.Errorf("int Value = %v", got)
	}
	if got := v.Value(1); !got.IsNull() || got.Typ != TInt {
		t.Errorf("null int Value = %v (typ %v)", got, got.Typ)
	}

	v.Reset(TBool, 2)
	v.I64[0], v.I64[1] = 1, 0
	if !v.Value(0).Bool() || v.Value(1).Bool() {
		t.Error("bool boxing wrong")
	}

	v.Reset(TDate, 1)
	v.I64[0] = 9125
	if got := v.Value(0); got.Typ != TDate || got.Int() != 9125 {
		t.Errorf("date Value = %v", got)
	}

	v.Reset(TFloat, 1)
	v.F64[0] = 2.5
	if got := v.Value(0); got.Typ != TFloat || got.Float() != 2.5 {
		t.Errorf("float Value = %v", got)
	}

	v.Reset(TDecimal, 1)
	v.I64[0], v.Scale[0] = 12345, 2
	want := NewDecimal(decimal.Decimal{Coef: 12345, Scale: 2})
	if got := v.Value(0); !Equal(got, want) {
		t.Errorf("decimal Value = %v, want %v", got, want)
	}

	v.Reset(TString, 2)
	v.Dict = NewDictView([]string{"main0"}, []string{"delta0"})
	v.Codes[0], v.Codes[1] = 0, 1
	if got := v.Value(0); got.Str() != "main0" {
		t.Errorf("string Value(0) = %v", got)
	}
	if got := v.Value(1); got.Str() != "delta0" {
		t.Errorf("string Value(1) = %v", got)
	}
}
