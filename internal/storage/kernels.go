package storage

import (
	"math/bits"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// Bulk kernels of the maintenance passes. Delta merge (appendAll),
// compaction (compact) and zone-map summaries (zone) work on the raw
// slices of each fragment type: no value is boxed, a string is looked
// up in a dictionary once per distinct value instead of once per row,
// and NULL bitmaps move a word or a set bit at a time.

// appendBits ORs the bits of src into b shifted up by at positions: bit
// i of src becomes bit at+i of b.
func (b *nullBitmap) appendBits(src *nullBitmap, at int) {
	for j, w := range src.words {
		if w == 0 {
			continue
		}
		pos := at + j*64
		i, sh := pos/64, uint(pos)%64
		if lo := w << sh; lo != 0 {
			b.or(i, lo)
		}
		if hi := w >> (64 - sh); hi != 0 { // sh == 0 shifts everything out
			b.or(i+1, hi)
		}
	}
}

// compactBits returns the set bits of src that survive remap, at their
// new positions remap[i]-base.
func compactBits(src *nullBitmap, remap []int, base int) nullBitmap {
	var out nullBitmap
	for j, w := range src.words {
		for ; w != 0; w &= w - 1 {
			if np := remap[j*64+bits.TrailingZeros64(w)]; np >= 0 {
				out.set(np - base)
			}
		}
	}
	return out
}

// compactSlice returns the kept entries of src that survive remap, at
// their new positions remap[i]-base, in a slice of exactly kept entries.
func compactSlice[T any](src []T, remap []int, base, kept int) []T {
	out := make([]T, kept)
	for i, np := range remap {
		if np >= 0 {
			out[np-base] = src[i]
		}
	}
	return out
}

func (f *intFragment) appendAll(src fragment) {
	s := src.(*intFragment)
	f.nulls.appendBits(&s.nulls, len(f.vals))
	f.vals = append(f.vals, s.vals...)
}

func (f *intFragment) compact(remap []int, base, kept int) fragment {
	return &intFragment{typ: f.typ,
		vals:  compactSlice(f.vals, remap, base, kept),
		nulls: compactBits(&f.nulls, remap, base)}
}

func (f *intFragment) zone(lo, hi int) zone {
	var z zone
	var mn, mx int64
	for i := lo; i < hi; i++ {
		switch v := f.vals[i]; {
		case f.nulls.get(i):
			z.hasNull = true
		case !z.has:
			mn, mx, z.has = v, v, true
		case v < mn:
			mn = v
		case v > mx:
			mx = v
		}
	}
	if z.has && f.typ == types.TDate {
		z.min, z.max = types.NewDate(mn), types.NewDate(mx)
	} else if z.has {
		z.min, z.max = types.NewInt(mn), types.NewInt(mx)
	}
	return z
}

func (f *floatFragment) appendAll(src fragment) {
	s := src.(*floatFragment)
	f.nulls.appendBits(&s.nulls, len(f.vals))
	f.vals = append(f.vals, s.vals...)
}

func (f *floatFragment) compact(remap []int, base, kept int) fragment {
	return &floatFragment{
		vals:  compactSlice(f.vals, remap, base, kept),
		nulls: compactBits(&f.nulls, remap, base)}
}

// zone orders floats as types.Compare does: a NaN never replaces a bound
// and, once a bound, is never replaced.
func (f *floatFragment) zone(lo, hi int) zone {
	var z zone
	var mn, mx float64
	for i := lo; i < hi; i++ {
		switch v := f.vals[i]; {
		case f.nulls.get(i):
			z.hasNull = true
		case !z.has:
			mn, mx, z.has = v, v, true
		default:
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
	}
	if z.has {
		z.min, z.max = types.NewFloat(mn), types.NewFloat(mx)
	}
	return z
}

func (f *boolFragment) appendAll(src fragment) {
	s := src.(*boolFragment)
	f.vals.appendBits(&s.vals, f.n)
	f.nulls.appendBits(&s.nulls, f.n)
	f.n += s.n
}

func (f *boolFragment) compact(remap []int, base, kept int) fragment {
	return &boolFragment{n: kept,
		vals:  compactBits(&f.vals, remap, base),
		nulls: compactBits(&f.nulls, remap, base)}
}

func (f *boolFragment) zone(lo, hi int) zone {
	var z zone
	var anyFalse, anyTrue bool
	for i := lo; i < hi; i++ {
		switch {
		case f.nulls.get(i):
			z.hasNull = true
		case f.vals.get(i):
			anyTrue = true
		default:
			anyFalse = true
		}
	}
	if z.has = anyFalse || anyTrue; z.has {
		z.min, z.max = types.NewBool(!anyFalse), types.NewBool(anyTrue)
	}
	return z
}

// appendAll recodes the delta's codes through a delta-code → main-code
// table filled from the delta dictionary, whose order is the order its
// rows first used each value.
func (f *stringFragment) appendAll(src fragment) {
	s := src.(*stringFragment)
	recode := make([]int32, len(s.dict.vals))
	for c, str := range s.dict.vals {
		recode[c] = f.dict.code(str)
	}
	n := len(f.codes)
	f.nulls.appendBits(&s.nulls, n)
	f.codes = append(f.codes, s.codes...)
	for i, c := range s.codes {
		if !s.nulls.get(i) { // a NULL's code stays 0
			f.codes[n+i] = recode[c]
		}
	}
}

// compact gives the successor a dictionary of the values its kept rows
// use, in the order they first use them: strings held only by removed
// versions are dropped. The recode table keeps the values distinct, so
// the dictionary's reverse index is left for the next write to build.
func (f *stringFragment) compact(remap []int, base, kept int) fragment {
	out := &stringFragment{
		dict:  &dict{vals: make([]string, 0, min(kept, len(f.dict.vals)))},
		codes: make([]int32, kept),
		nulls: compactBits(&f.nulls, remap, base)}
	recode := make([]int32, len(f.dict.vals))
	for c := range recode {
		recode[c] = -1
	}
	for i, np := range remap {
		if np < 0 || f.nulls.get(i) {
			continue
		}
		c := f.codes[i]
		if recode[c] < 0 {
			recode[c] = int32(len(out.dict.vals))
			out.dict.vals = append(out.dict.vals, f.dict.vals[c])
		}
		out.codes[np-base] = recode[c]
	}
	return out
}

func (f *stringFragment) zone(lo, hi int) zone {
	var z zone
	var mn, mx string
	mnc, mxc := int32(-1), int32(-1) // codes of mn and mx: most rows repeat one
	for i := lo; i < hi; i++ {
		c := f.codes[i]
		if f.nulls.get(i) {
			z.hasNull = true
			continue
		}
		if c == mnc || c == mxc {
			continue
		}
		switch s := f.dict.vals[c]; {
		case !z.has:
			mn, mx, mnc, mxc, z.has = s, s, c, c, true
		case s < mn:
			mn, mnc = s, c
		case s > mx:
			mx, mxc = s, c
		}
	}
	if z.has {
		z.min, z.max = types.NewString(mn), types.NewString(mx)
	}
	return z
}

func (f *decimalFragment) appendAll(src fragment) {
	s := src.(*decimalFragment)
	f.nulls.appendBits(&s.nulls, len(f.coefs))
	f.coefs = append(f.coefs, s.coefs...)
	f.scales = append(f.scales, s.scales...)
}

func (f *decimalFragment) compact(remap []int, base, kept int) fragment {
	return &decimalFragment{
		coefs:  compactSlice(f.coefs, remap, base, kept),
		scales: compactSlice(f.scales, remap, base, kept),
		nulls:  compactBits(&f.nulls, remap, base)}
}

func (f *decimalFragment) zone(lo, hi int) zone {
	var z zone
	var mn, mx decimal.Decimal
	for i := lo; i < hi; i++ {
		if f.nulls.get(i) {
			z.hasNull = true
			continue
		}
		switch d := (decimal.Decimal{Coef: f.coefs[i], Scale: f.scales[i]}); {
		case !z.has:
			mn, mx, z.has = d, d, true
		case d.Cmp(mn) < 0:
			mn = d
		case d.Cmp(mx) > 0:
			mx = d
		}
	}
	if z.has {
		z.min, z.max = types.NewDecimal(mn), types.NewDecimal(mx)
	}
	return z
}
