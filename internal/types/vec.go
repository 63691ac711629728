package types

import "vdm/internal/decimal"

// Vec is one column of a batch: a typed vector of values decoded only as
// far as the executor needs. Numeric payloads are stored unboxed; string
// columns carry raw dictionary codes plus a DictView for on-demand
// decoding, so filters and joins can compare codes without materializing
// strings.
//
// Storage layout by type:
//
//	TInt, TDate  I64 (int64 payload)
//	TBool        I64 (0 or 1)
//	TFloat       F64
//	TDecimal     I64 (coefficient) + Scale
//	TString      Codes (dictionary codes) + Dict
//
// NULL rows are marked in the Nulls bitmap; their payload slots hold the
// zero value. A nil/empty Nulls slice means the vector is null-free,
// which kernels use as a fast path.
//
// IMPORTANT: dictionary codes are only meaningful relative to the Dict
// captured with the same fill. A delta merge re-encodes delta rows, so
// codes may be compared or retained across batches only within one
// DictView, checked by Same; state that outlives a view (group tables,
// join keys) must key on decoded strings or on Value.AppendKey bytes.
type Vec struct {
	// Typ is the column's declared datatype.
	Typ Type
	// Nulls is a bitmap with bit i set when row i is NULL. Empty means
	// no NULLs in this vector.
	Nulls []uint64
	// I64 holds int64 payloads (TInt/TDate), booleans as 0/1 (TBool),
	// or decimal coefficients (TDecimal).
	I64 []int64
	// Scale holds per-row decimal scales (TDecimal only).
	Scale []int32
	// F64 holds float payloads (TFloat).
	F64 []float64
	// Codes holds dictionary codes (TString only), valid against Dict.
	Codes []int32
	// Dict decodes Codes for this batch (TString only).
	Dict DictView
	// Strs holds materialized strings for computed string vectors
	// (concat, CASE, scalar functions), which have no dictionary. When
	// non-empty it takes precedence over Codes/Dict.
	Strs []string
}

// DictView is an immutable view over a string column's dictionaries at
// fill time: codes < len(main) resolve in the main dictionary, higher
// codes in the delta dictionary. Both backing slices are append-only
// snapshots, so a view stays valid after the table lock is released.
type DictView struct {
	main  []string
	delta []string
}

// NewDictView builds a view over the given main and delta dictionary
// value slices. The storage layer captures both under the table lock.
func NewDictView(main, delta []string) DictView {
	return DictView{main: main, delta: delta}
}

// Decode returns the string for a combined dictionary code.
func (d DictView) Decode(code int32) string {
	if int(code) < len(d.main) {
		return d.main[code]
	}
	return d.delta[int(code)-len(d.main)]
}

// Same reports whether d and o view the same backing main and delta
// slices at the same lengths. Both dictionaries are append-only, so every
// code then decodes to the same string under either view; a delta merge
// that re-encoded codes, or another column, yields a view that is not
// Same. A caller that keeps codes across views keeps the old view too,
// so the arrays it compares cannot be freed and reused meanwhile.
func (d DictView) Same(o DictView) bool {
	return sameStrings(d.main, o.main) && sameStrings(d.delta, o.delta)
}

// sameStrings reports whether a and b are the same slice: equal lengths
// over one backing array (any two empty slices qualify).
func sameStrings(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Size returns the number of distinct codes addressable by the view,
// i.e. the exclusive upper bound on valid codes.
func (d DictView) Size() int { return len(d.main) + len(d.delta) }

// Reset prepares the vector to hold n rows of type t, reusing backing
// storage. Payload slots are zeroed lazily by the fill; the null bitmap
// is cleared.
func (v *Vec) Reset(t Type, n int) {
	v.Typ = t
	v.Nulls = v.Nulls[:0]
	v.Strs = nil
	switch t {
	case TFloat:
		v.F64 = growSlice(v.F64, n)
	case TString:
		v.Codes = growSlice(v.Codes, n)
		v.Dict = DictView{}
	case TDecimal:
		v.I64 = growSlice(v.I64, n)
		v.Scale = growSlice(v.Scale, n)
	default:
		v.I64 = growSlice(v.I64, n)
	}
}

// ResetStrings prepares the vector to hold n computed strings (no
// dictionary backing), reusing the Strs buffer.
func (v *Vec) ResetStrings(n int) {
	v.Typ = TString
	v.Nulls = v.Nulls[:0]
	v.Strs = growSlice(v.Strs, n)
	v.Codes = nil
	v.Dict = DictView{}
}

// growSlice returns s resized to length n, reusing capacity when it can.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// SetNull marks row i NULL, growing the bitmap as needed. Newly grown
// words are explicitly zeroed so stale bits from a previous, larger
// batch are never observed.
func (v *Vec) SetNull(i int) {
	w := i >> 6
	for len(v.Nulls) <= w {
		if len(v.Nulls) < cap(v.Nulls) {
			v.Nulls = v.Nulls[:len(v.Nulls)+1]
			v.Nulls[len(v.Nulls)-1] = 0
		} else {
			v.Nulls = append(v.Nulls, 0)
		}
	}
	v.Nulls[w] |= 1 << (uint(i) & 63)
}

// NullAt reports whether row i is NULL.
func (v *Vec) NullAt(i int) bool {
	w := i >> 6
	if w >= len(v.Nulls) {
		return false
	}
	return v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// Value boxes row i into a Value, decoding dictionary codes. NULL rows
// box to a typed NULL, matching what a row-at-a-time read of the same
// column produces.
func (v *Vec) Value(i int) Value {
	if v.NullAt(i) {
		return NewNull(v.Typ)
	}
	switch v.Typ {
	case TInt:
		return NewInt(v.I64[i])
	case TDate:
		return NewDate(v.I64[i])
	case TBool:
		return NewBool(v.I64[i] != 0)
	case TFloat:
		return NewFloat(v.F64[i])
	case TDecimal:
		return NewDecimal(decimal.Decimal{Coef: v.I64[i], Scale: v.Scale[i]})
	case TString:
		return NewString(v.StrAt(i))
	}
	return NewNull(v.Typ)
}

// StrAt returns the string payload of row i without boxing, resolving
// either the materialized Strs buffer or the dictionary code.
func (v *Vec) StrAt(i int) string {
	if len(v.Strs) > 0 {
		return v.Strs[i]
	}
	return v.Dict.Decode(v.Codes[i])
}
