// Package storage implements the in-memory columnar table store that
// substitutes for SAP HANA's column engine in this reproduction: each
// column has a read-optimized main fragment (dictionary-encoded for
// strings) and a write-optimized delta fragment that is periodically
// merged, and row visibility follows MVCC snapshot timestamps.
package storage

import (
	"fmt"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// nullBitmap tracks NULLs for a column fragment.
type nullBitmap struct {
	words []uint64
}

func (b *nullBitmap) set(i int) { b.or(i/64, 1<<(uint(i)%64)) }

// or ORs bits into word w, growing the bitmap to hold it.
func (b *nullBitmap) or(w int, bits uint64) {
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= bits
}

func (b *nullBitmap) get(i int) bool {
	w := i / 64
	return w < len(b.words) && b.words[w]&(1<<(uint(i)%64)) != 0
}

// fragment stores the values of one column for a contiguous range of
// rows. Both the main and the delta fragment of a column implement it.
type fragment interface {
	// get returns the value at position i within the fragment.
	get(i int) types.Value
	// append adds a value; the value's type must match the column type
	// (or be NULL).
	append(v types.Value) error
	// len returns the number of stored values.
	len() int

	// The bulk kernels of merge and compaction (kernels.go).

	// appendAll appends every value of src, a fragment of the same
	// concrete type.
	appendAll(src fragment)
	// compact returns a new fragment of exactly kept values: value i
	// moves to position remap[i]-base, or is dropped when remap[i] < 0.
	compact(remap []int, base, kept int) fragment
	// zone summarizes the values at positions [lo, hi).
	zone(lo, hi int) zone
	// fill copies the n values at positions [lo, lo+n) into rows
	// [at, at+n) of v, which has been Reset to the column's type: payloads
	// by slice, NULLs a word at a time (a NULL's payload is zero). base
	// offsets a string fragment's codes; the other types ignore it.
	fill(v *types.Vec, at, lo, n int, base int32)
}

// newFragment returns an empty fragment for the given type.
func newFragment(t types.Type) fragment {
	switch t {
	case types.TInt, types.TDate:
		return &intFragment{typ: t}
	case types.TFloat:
		return &floatFragment{}
	case types.TBool:
		return &boolFragment{}
	case types.TString:
		return &stringFragment{dict: &dict{}}
	case types.TDecimal:
		return &decimalFragment{}
	}
	panic(fmt.Sprintf("storage: no fragment for type %s", t))
}

type intFragment struct {
	typ   types.Type
	vals  []int64
	nulls nullBitmap
}

func (f *intFragment) len() int { return len(f.vals) }

func (f *intFragment) get(i int) types.Value {
	if f.nulls.get(i) {
		return types.NewNull(f.typ)
	}
	if f.typ == types.TDate {
		return types.NewDate(f.vals[i])
	}
	return types.NewInt(f.vals[i])
}

func (f *intFragment) append(v types.Value) error {
	if v.IsNull() {
		f.nulls.set(len(f.vals))
		f.vals = append(f.vals, 0)
		return nil
	}
	if v.Typ != f.typ {
		return fmt.Errorf("storage: type mismatch: %s into %s column", v.Typ, f.typ)
	}
	f.vals = append(f.vals, v.Int())
	return nil
}

type floatFragment struct {
	vals  []float64
	nulls nullBitmap
}

func (f *floatFragment) len() int { return len(f.vals) }

func (f *floatFragment) get(i int) types.Value {
	if f.nulls.get(i) {
		return types.NewNull(types.TFloat)
	}
	return types.NewFloat(f.vals[i])
}

func (f *floatFragment) append(v types.Value) error {
	if v.IsNull() {
		f.nulls.set(len(f.vals))
		f.vals = append(f.vals, 0)
		return nil
	}
	switch v.Typ {
	case types.TFloat:
		f.vals = append(f.vals, v.Float())
	case types.TInt:
		f.vals = append(f.vals, float64(v.Int()))
	default:
		return fmt.Errorf("storage: type mismatch: %s into DOUBLE column", v.Typ)
	}
	return nil
}

type boolFragment struct {
	vals  nullBitmap // value bits
	nulls nullBitmap
	n     int
}

func (f *boolFragment) len() int { return f.n }

func (f *boolFragment) get(i int) types.Value {
	if f.nulls.get(i) {
		return types.NewNull(types.TBool)
	}
	return types.NewBool(f.vals.get(i))
}

func (f *boolFragment) append(v types.Value) error {
	i := f.n
	f.n++
	if v.IsNull() {
		f.nulls.set(i)
		return nil
	}
	if v.Typ != types.TBool {
		return fmt.Errorf("storage: type mismatch: %s into BOOLEAN column", v.Typ)
	}
	if v.Bool() {
		f.vals.set(i)
	}
	return nil
}

// dict is the string dictionary for a dictionary-encoded fragment: vals
// is the code table, idx its reverse index. Only a write looks a value
// up, so compaction — which recodes through a table — builds vals alone,
// and the first write into the fragment afterwards rebuilds idx: a table
// that is compacted and then only read never carries the index.
type dict struct {
	vals []string
	idx  map[string]int32
}

// code returns the code of s, adding it to the dictionary if new.
func (d *dict) code(s string) int32 {
	if d.idx == nil {
		d.idx = make(map[string]int32, len(d.vals))
		for c, v := range d.vals {
			d.idx[v] = int32(c)
		}
	}
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.idx[s] = c
	return c
}

// stringFragment stores dictionary-encoded strings: codes index into the
// dictionary, mirroring the compressed columnar layout of the paper's
// target system.
type stringFragment struct {
	dict  *dict
	codes []int32
	nulls nullBitmap
}

func (f *stringFragment) len() int { return len(f.codes) }

func (f *stringFragment) get(i int) types.Value {
	if f.nulls.get(i) {
		return types.NewNull(types.TString)
	}
	return types.NewString(f.dict.vals[f.codes[i]])
}

func (f *stringFragment) append(v types.Value) error {
	if v.IsNull() {
		f.nulls.set(len(f.codes))
		f.codes = append(f.codes, 0)
		return nil
	}
	if v.Typ != types.TString {
		return fmt.Errorf("storage: type mismatch: %s into VARCHAR column", v.Typ)
	}
	f.codes = append(f.codes, f.dict.code(v.Str()))
	return nil
}

// DistinctCount returns the dictionary size, used by the (simple)
// statistics layer.
func (f *stringFragment) distinctCount() int { return len(f.dict.vals) }

type decimalFragment struct {
	coefs  []int64
	scales []int32
	nulls  nullBitmap
}

func (f *decimalFragment) len() int { return len(f.coefs) }

func (f *decimalFragment) get(i int) types.Value {
	if f.nulls.get(i) {
		return types.NewNull(types.TDecimal)
	}
	return types.NewDecimal(decimal.Decimal{Coef: f.coefs[i], Scale: f.scales[i]})
}

func (f *decimalFragment) append(v types.Value) error {
	if v.IsNull() {
		f.nulls.set(len(f.coefs))
		f.coefs = append(f.coefs, 0)
		f.scales = append(f.scales, 0)
		return nil
	}
	var d decimal.Decimal
	switch v.Typ {
	case types.TDecimal:
		d = v.Decimal()
	case types.TInt:
		d = decimal.FromInt(v.Int())
	default:
		return fmt.Errorf("storage: type mismatch: %s into DECIMAL column", v.Typ)
	}
	f.coefs = append(f.coefs, d.Coef)
	f.scales = append(f.scales, d.Scale)
	return nil
}

// column is one table column: a main fragment plus a delta fragment.
// Logical position i maps to main when i < main.len(), else to delta.
type column struct {
	typ   types.Type
	main  fragment
	delta fragment
}

func newColumn(t types.Type) *column {
	return &column{typ: t, main: newFragment(t), delta: newFragment(t)}
}

func (c *column) get(i int) types.Value {
	if m := c.main.len(); i < m {
		return c.main.get(i)
	} else {
		return c.delta.get(i - m)
	}
}

func (c *column) appendDelta(v types.Value) error { return c.delta.append(v) }

func (c *column) len() int { return c.main.len() + c.delta.len() }

// mergeDelta moves all delta values into the main fragment (re-encoding
// through the main dictionary for strings) and resets the delta.
func (c *column) mergeDelta() {
	c.main.appendAll(c.delta)
	c.delta = newFragment(c.typ)
}
