package types

import (
	"encoding/binary"
	"math"
)

// Key-encoding tags. TInt, TDate, and TBool share one tag so that the
// engine's long-standing hash semantics are preserved: the integer 1,
// the date day-1, and TRUE all encode to the same key, exactly as the
// historical string encoding ("\x01%d") behaved.
const (
	keyTagNull    = 0x00
	keyTagInt     = 0x01
	keyTagFloat   = 0x02
	keyTagString  = 0x03
	keyTagDecimal = 0x04
	keyTagOther   = 0x05
)

// AppendKey appends a compact binary encoding of v to dst and returns
// the extended slice. Two values are SQL-equal under the engine's hash
// semantics iff their encodings are byte-equal; NULLs encode to a
// dedicated tag so a NULL key never collides with any value. The
// encoding is self-delimiting (strings are length-prefixed), so
// composite keys may be built by plain concatenation without separator
// collisions. It performs no allocation beyond growing dst.
func (v Value) AppendKey(dst []byte) []byte {
	if v.IsNull() {
		return append(dst, keyTagNull)
	}
	switch v.Typ {
	case TInt, TDate, TBool:
		dst = append(dst, keyTagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case TFloat:
		dst = append(dst, keyTagFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case TString:
		dst = append(dst, keyTagString)
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	case TDecimal:
		d := v.Decimal().Normalize()
		dst = append(dst, keyTagDecimal)
		dst = binary.BigEndian.AppendUint64(dst, uint64(d.Coef))
		return binary.BigEndian.AppendUint32(dst, uint32(d.Scale))
	}
	return append(dst, keyTagOther)
}

// AppendRowKey appends the concatenated key encodings of every value in
// the row — the composite grouping/distinct key.
func AppendRowKey(dst []byte, row Row) []byte {
	for _, v := range row {
		dst = v.AppendKey(dst)
	}
	return dst
}
