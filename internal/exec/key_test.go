package exec

import (
	"slices"
	"testing"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// valVec builds a vector of one type from boxed values; a NULL value is
// a NULL row. Strings are computed (Strs).
func valVec(typ types.Type, vals ...types.Value) types.Vec {
	var v types.Vec
	if typ == types.TString {
		v.ResetStrings(len(vals))
	} else {
		v.Reset(typ, len(vals))
	}
	for i, x := range vals {
		switch {
		case x.IsNull():
			v.SetNull(i)
		case typ == types.TString:
			v.Strs[i] = x.Str()
		case typ == types.TFloat:
			v.F64[i] = x.Float()
		case typ == types.TDecimal:
			d := x.Decimal()
			v.I64[i], v.Scale[i] = d.Coef, d.Scale
		default:
			v.I64[i] = x.Int()
		}
	}
	return v
}

// keyIDs inserts (or, with lookup set, looks up) every row of the batch
// whose columns are cols.
func keyIDs(t *testing.T, ix *keyIndex, lookup bool, cols ...types.Vec) []int32 {
	t.Helper()
	c := &cols[0]
	b := &Batch{N: max(len(c.I64), len(c.F64), len(c.Codes), len(c.Strs)), Cols: cols}
	pos := make([]int, len(cols))
	for i := range pos {
		pos[i] = i
	}
	rows := iota32(new([]int32), b.N)
	if lookup {
		return ix.lookup(b, pos, rows, nil)
	}
	ids, err := ix.insert(b, pos, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestKeyIndexIDs pins keyIndex's numbering: ids are dense and in
// first-seen order; two values share an id iff Value.AppendKey says they
// are equal (the integer family by payload, decimals normalized, floats
// apart from ints); a dictionary-coded string and the same computed
// string share one; NULL is one value under GROUP BY/DISTINCT semantics
// and no id at all under a join's; and a composite folds its columns
// without ever merging two distinct tuples.
func TestKeyIndexIDs(t *testing.T) {
	null := types.NewNull(types.TInt)
	dec := func(s string) types.Value { return types.NewDecimal(decimal.MustParse(s)) }
	cases := []struct {
		name  string
		nulls bool
		cols  []types.Vec
		want  []int32
	}{
		{"ints", true, []types.Vec{valVec(types.TInt, types.NewInt(5), types.NewInt(7), null, types.NewInt(5), types.NewInt(9), null)},
			[]int32{0, 1, 2, 0, 3, 2}},
		{"join-nulls", false, []types.Vec{valVec(types.TInt, null, types.NewInt(5), null, types.NewInt(7), types.NewInt(5))},
			[]int32{-1, 0, -1, 1, 0}},
		{"decimals", true, []types.Vec{valVec(types.TDecimal, dec("1"), dec("1.0"), dec("2.50"), dec("1.00"), dec("2.5"))},
			[]int32{0, 0, 1, 0, 1}},
		{"floats", true, []types.Vec{valVec(types.TFloat, types.NewFloat(1.5), types.NewFloat(0), types.NewFloat(1.5))},
			[]int32{0, 1, 0}},
		{"composite", true, []types.Vec{
			valVec(types.TInt, types.NewInt(1), types.NewInt(1), types.NewInt(2), null, types.NewInt(1), null),
			valVec(types.TString, types.NewString("a"), types.NewString("b"), types.NewString("a"), types.NewString("a"), types.NewString("a"), types.NewString("a")),
			valVec(types.TBool, types.NewBool(true), types.NewBool(true), types.NewBool(true), null, types.NewBool(true), null)},
			[]int32{0, 1, 2, 3, 0, 3}},
		{"composite-join", false, []types.Vec{
			valVec(types.TInt, types.NewInt(1), null, types.NewInt(1), types.NewInt(2)),
			valVec(types.TInt, null, types.NewInt(1), types.NewInt(1), types.NewInt(1))},
			[]int32{-1, -1, 0, 1}},
	}
	for _, tc := range cases {
		ix := newKeyIndex(len(tc.cols), tc.nulls, &memAcct{})
		if got := keyIDs(t, &ix, false, tc.cols...); !slices.Equal(got, tc.want) {
			t.Errorf("%s: ids %v, want %v", tc.name, got, tc.want)
		}
		if got, want := ix.size(), int(slices.Max(tc.want))+1; got != want {
			t.Errorf("%s: size %d, want %d", tc.name, got, want)
		}
	}

	// The integer family shares one class: an int column finds a date
	// column's and a bool column's values; a float never matches an int.
	ix := newKeyIndex(1, false, &memAcct{})
	keyIDs(t, &ix, false, valVec(types.TDate, types.NewDate(1), types.NewDate(20000)))
	probe := []types.Vec{valVec(types.TInt, types.NewInt(20000), types.NewInt(1), types.NewInt(2))}
	if got := keyIDs(t, &ix, true, probe...); !slices.Equal(got, []int32{1, 0, -1}) {
		t.Errorf("int probe of date keys: %v, want [1 0 -1]", got)
	}
	if got := keyIDs(t, &ix, true, valVec(types.TBool, types.NewBool(true))); !slices.Equal(got, []int32{0}) {
		t.Errorf("bool probe of date keys: %v, want [0]", got)
	}
	if got := keyIDs(t, &ix, true, valVec(types.TFloat, types.NewFloat(1))); !slices.Equal(got, []int32{-1}) {
		t.Errorf("float probe of date keys: %v, want [-1]", got)
	}

	// Dictionary codes and computed strings number alike, across views.
	ix = newKeyIndex(1, true, &memAcct{})
	coded := dictVec([]string{"x", "y"}, []string{"z"}, []int32{2, -1, 0, 2, 1})
	if got := keyIDs(t, &ix, false, coded); !slices.Equal(got, []int32{0, 1, 2, 0, 3}) {
		t.Errorf("coded ids %v, want [0 1 2 0 3]", got)
	}
	recoded := dictVec([]string{"y", "z", "w"}, nil, []int32{1, 2, -1, 0})
	if got := keyIDs(t, &ix, false, recoded); !slices.Equal(got, []int32{0, 4, 1, 3}) {
		t.Errorf("ids under a new view %v, want [0 4 1 3]", got)
	}
	if got := keyIDs(t, &ix, false, strsOf(&coded)); !slices.Equal(got, []int32{0, 1, 2, 0, 3}) {
		t.Errorf("computed ids %v, want [0 1 2 0 3]", got)
	}
}

// TestKeyIndexLookupNeverInserts checks that an insert meters what it
// adds, and that a probe finds what was inserted, gets -1 for anything
// else, and leaves the index as it was:
// no id, map entry or metered byte is added, so an insert after it
// still hands out the next id.
func TestKeyIndexLookupNeverInserts(t *testing.T) {
	acct := &memAcct{}
	ix := newKeyIndex(2, false, acct)
	build := []types.Vec{
		valVec(types.TInt, types.NewInt(1), types.NewInt(2)),
		dictVec([]string{"a", "b"}, nil, []int32{0, 1}),
	}
	keyIDs(t, &ix, false, build...)
	size, bytes := ix.size(), acct.bytes()
	// Two entries per column and two folded pairs, plus each string's
	// bytes and header.
	if want := int64(6*keyEntryBytes + 2*(1+16)); bytes != want {
		t.Errorf("insert metered %d bytes, want %d", bytes, want)
	}
	probe := []types.Vec{
		valVec(types.TInt, types.NewInt(2), types.NewInt(1), types.NewInt(3), types.NewInt(1)),
		dictVec([]string{"b", "c", "a"}, nil, []int32{0, 1, 2, 0}),
	}
	for range 2 {
		if got := keyIDs(t, &ix, true, probe...); !slices.Equal(got, []int32{1, -1, -1, -1}) {
			t.Errorf("lookup ids %v, want [1 -1 -1 -1]", got)
		}
	}
	if ix.size() != size || acct.bytes() != bytes || len(ix.cols[0].ints) != 2 || len(ix.cols[1].strs) != 2 {
		t.Errorf("lookup grew the index: size %d→%d, bytes %d→%d, %d ints, %d strings",
			size, ix.size(), bytes, acct.bytes(), len(ix.cols[0].ints), len(ix.cols[1].strs))
	}
	more := []types.Vec{valVec(types.TInt, types.NewInt(3)), valVec(types.TString, types.NewString("c"))}
	if got := keyIDs(t, &ix, false, more...); !slices.Equal(got, []int32{int32(size)}) {
		t.Errorf("insert after lookups: %v, want [%d]", got, size)
	}
}
