package storage

import (
	"math/bits"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// Bulk kernels of the maintenance passes and the batch scan. Delta merge
// (appendAll), compaction (compact), zone-map summaries (zone) and batch
// fills (fill) work on the raw slices of each fragment type: no value is
// boxed, a string is looked up in a dictionary once per distinct value
// instead of once per row, and NULL bitmaps move a word or a set bit at a
// time.

// orBits ORs bits [lo, lo+n) of src into b, bit lo+i landing at bit
// at+i, a word at a time. b grows (zero-filled) only where a set bit
// lands, so copying a run without NULLs leaves it as it was.
func (b *nullBitmap) orBits(src *nullBitmap, at, lo, n int) {
	for k := 0; k < n && (lo+k)/64 < len(src.words); k += 64 {
		w := src.word(lo+k, n-k)
		if w == 0 {
			continue
		}
		i, sh := (at+k)/64, uint(at+k)%64
		if low := w << sh; low != 0 {
			b.or(i, low)
		}
		if high := w >> (64 - sh); high != 0 { // sh == 0 shifts everything out
			b.or(i+1, high)
		}
	}
}

// word returns bits [p, p+min(n, 64)) of b as one word, bit p lowest.
func (b *nullBitmap) word(p, n int) uint64 {
	i, sh := p/64, uint(p)%64
	var w uint64
	if i < len(b.words) {
		w = b.words[i] >> sh
	}
	if sh != 0 && i+1 < len(b.words) {
		w |= b.words[i+1] << (64 - sh)
	}
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	return w
}

// fillNulls marks v's rows [at, at+n) NULL where bits [lo, lo+n) of
// nulls are set; v.Nulls stays empty while no NULL lands.
func fillNulls(v *types.Vec, nulls *nullBitmap, at, lo, n int) {
	dst := nullBitmap{words: v.Nulls}
	dst.orBits(nulls, at, lo, n)
	v.Nulls = dst.words
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
	f.nulls.orBits(&s.nulls, len(f.vals), 0, len(s.vals))
	f.vals = append(f.vals, s.vals...)
}

func (f *intFragment) compact(remap []int, base, kept int) fragment {
	return &intFragment{typ: f.typ,
		vals:  compactSlice(f.vals, remap, base, kept),
		nulls: compactBits(&f.nulls, remap, base)}
}

func (f *intFragment) fill(v *types.Vec, at, lo, n int, _ int32) {
	copy(v.I64[at:at+n], f.vals[lo:lo+n])
	fillNulls(v, &f.nulls, at, lo, n)
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
	f.nulls.orBits(&s.nulls, len(f.vals), 0, len(s.vals))
	f.vals = append(f.vals, s.vals...)
}

func (f *floatFragment) compact(remap []int, base, kept int) fragment {
	return &floatFragment{
		vals:  compactSlice(f.vals, remap, base, kept),
		nulls: compactBits(&f.nulls, remap, base)}
}

func (f *floatFragment) fill(v *types.Vec, at, lo, n int, _ int32) {
	copy(v.F64[at:at+n], f.vals[lo:lo+n])
	fillNulls(v, &f.nulls, at, lo, n)
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
	f.vals.orBits(&s.vals, f.n, 0, s.n)
	f.nulls.orBits(&s.nulls, f.n, 0, s.n)
	f.n += s.n
}

func (f *boolFragment) compact(remap []int, base, kept int) fragment {
	return &boolFragment{n: kept,
		vals:  compactBits(&f.vals, remap, base),
		nulls: compactBits(&f.nulls, remap, base)}
}

// fill unpacks the value bits; a NULL's value bit is never set.
func (f *boolFragment) fill(v *types.Vec, at, lo, n int, _ int32) {
	dst := v.I64[at : at+n]
	for k := 0; k < n; k += 64 {
		w := f.vals.word(lo+k, n-k)
		for i := range dst[k:min(k+64, n)] {
			dst[k+i] = int64(w >> uint(i) & 1)
		}
	}
	fillNulls(v, &f.nulls, at, lo, n)
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
	f.nulls.orBits(&s.nulls, n, 0, len(s.codes))
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

// fill copies the codes, adding base to each non-NULL one (a delta's
// codes follow the main dictionary's); a NULL's code stays 0.
func (f *stringFragment) fill(v *types.Vec, at, lo, n int, base int32) {
	dst := v.Codes[at : at+n]
	copy(dst, f.codes[lo:lo+n])
	if base != 0 {
		for i := range dst {
			dst[i] += base
		}
		for k := 0; k < n; k += 64 {
			for w := f.nulls.word(lo+k, n-k); w != 0; w &= w - 1 {
				dst[k+bits.TrailingZeros64(w)] = 0
			}
		}
	}
	fillNulls(v, &f.nulls, at, lo, n)
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
	f.nulls.orBits(&s.nulls, len(f.coefs), 0, len(s.coefs))
	f.coefs = append(f.coefs, s.coefs...)
	f.scales = append(f.scales, s.scales...)
}

func (f *decimalFragment) compact(remap []int, base, kept int) fragment {
	return &decimalFragment{
		coefs:  compactSlice(f.coefs, remap, base, kept),
		scales: compactSlice(f.scales, remap, base, kept),
		nulls:  compactBits(&f.nulls, remap, base)}
}

func (f *decimalFragment) fill(v *types.Vec, at, lo, n int, _ int32) {
	copy(v.I64[at:at+n], f.coefs[lo:lo+n])
	copy(v.Scale[at:at+n], f.scales[lo:lo+n])
	fillNulls(v, &f.nulls, at, lo, n)
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
