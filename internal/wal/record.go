// Package wal implements the engine's durability layer: a write-ahead
// log of commit batches and schema DDL as length-prefixed, CRC32C-
// checksummed records, a checkpoint that serializes table data at a
// pinned commit timestamp, and the recovery scan that restores a
// checkpoint and replays the log tail — truncating, never partially
// replaying, a torn final record.
//
// The package is storage-agnostic: it knows values (internal/types) and
// record shapes, but not tables or MVCC. internal/storage drives it
// from the single serialized commit-apply point.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// Record kinds. A WAL file is a sequence of frames; each frame's
// payload starts with one of these bytes.
const (
	// recCommit is one committed transaction: commit timestamp plus the
	// per-table row operations applied at it.
	recCommit byte = 1
	// recCreateTable / recDropTable / recAddKey / recAddForeignKey are
	// the schema DDL record types; they carry no commit timestamp (the
	// commit clock advances only on commits) and replay in log order.
	recCreateTable   byte = 2
	recDropTable     byte = 3
	recAddKey        byte = 4
	recAddForeignKey byte = 5
)

// OpKind is a row operation inside a commit record.
type OpKind uint8

const (
	// OpInsert inserts Row.
	OpInsert OpKind = 0
	// OpDelete deletes the live row whose values equal Row. Deletes are
	// logged by value, not by physical position: row positions are not
	// stable across restarts (recovery rebuilds the store from a
	// compacted checkpoint), while the visible row multiset is — and
	// deleting any live row with identical values yields the same
	// multiset.
	OpDelete OpKind = 1
)

// RowOp is one logged row operation.
type RowOp struct {
	Kind OpKind
	Row  []types.Value
}

// TableOps groups a commit's operations on one table, in apply order.
type TableOps struct {
	Table string
	Ops   []RowOp
}

// Record is the sum type of WAL record payloads.
type Record interface{ isRecord() }

// CommitRecord is one committed transaction.
type CommitRecord struct {
	TS     uint64
	Tables []TableOps
}

// CreateTableRecord records a CreateTable DDL.
type CreateTableRecord struct {
	Name   string
	Schema types.Schema
}

// DropTableRecord records a DropTable DDL.
type DropTableRecord struct {
	Name string
}

// KeyDef mirrors a storage key constraint without importing storage
// (storage imports wal, not the other way around).
type KeyDef struct {
	Name    string
	Columns []int
	Primary bool
}

// FKDef mirrors a storage foreign key.
type FKDef struct {
	Name     string
	Columns  []int
	RefTable string
}

// AddKeyRecord records an AddKey DDL on Table.
type AddKeyRecord struct {
	Table string
	Key   KeyDef
}

// AddForeignKeyRecord records an AddForeignKey DDL on Table.
type AddForeignKeyRecord struct {
	Table string
	FK    FKDef
}

func (*CommitRecord) isRecord()        {}
func (*CreateTableRecord) isRecord()   {}
func (*DropTableRecord) isRecord()     {}
func (*AddKeyRecord) isRecord()        {}
func (*AddForeignKeyRecord) isRecord() {}

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum every frame and the checkpoint carry.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the per-record framing overhead: u32 payload length
// plus u32 CRC32C of the payload, both little-endian.
const frameHeaderLen = 8

// maxPayload bounds a single record; decoding rejects larger lengths so
// a corrupt length field cannot drive a huge allocation.
const maxPayload = 1 << 28 // 256 MiB

// AppendFrame appends one framed record ([len][crc32c][payload]) to b.
func AppendFrame(b []byte, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// ReadFrame reads the frame at b[off:]. It returns the payload and the
// offset just past the frame. ok=false means the bytes at off do not
// form a complete, checksum-valid frame — the caller treats everything
// from off on as a torn tail.
func ReadFrame(b []byte, off int) (payload []byte, next int, ok bool) {
	if off < 0 || len(b)-off < frameHeaderLen {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(b[off : off+4]))
	if n > maxPayload || len(b)-off-frameHeaderLen < n {
		return nil, off, false
	}
	crc := binary.LittleEndian.Uint32(b[off+4 : off+8])
	payload = b[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, off, false
	}
	return payload, off + frameHeaderLen + n, true
}

// --- payload codec -------------------------------------------------------

// Value encoding: one tag byte (low 7 bits: types.Type, high bit: NULL)
// followed by a type-specific body. Integers use zigzag uvarint so
// negative amounts stay short; strings are length-prefixed.

const nullBit = 0x80

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendValue appends the encoding of v.
func AppendValue(b []byte, v types.Value) []byte {
	tag := byte(v.Typ) & 0x7f
	if v.IsNull() {
		return append(b, tag|nullBit)
	}
	b = append(b, tag)
	switch v.Typ {
	case types.TInt, types.TDate:
		b = appendVarint(b, v.Int())
	case types.TBool:
		if v.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case types.TFloat:
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v.Float()))
		b = append(b, fb[:]...)
	case types.TString:
		b = appendString(b, v.Str())
	case types.TDecimal:
		d := v.Decimal()
		b = appendVarint(b, d.Coef)
		b = appendVarint(b, int64(d.Scale))
	default:
		// TNull non-null cannot occur (IsNull covers it); unknown types
		// encode as typed NULL so decoding stays total.
		b[len(b)-1] = tag | nullBit
	}
	return b
}

// decoder is a bounds-checked cursor over a record payload. Every read
// method reports failure through d.err instead of panicking, so corrupt
// bytes can never crash recovery (FuzzWALRecord pins this down).
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated payload at %d", d.off)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated %d-byte field at %d", n, d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string length %d exceeds remaining %d", n, len(d.b)-d.off)
		return ""
	}
	return string(d.bytes(int(n)))
}

// count reads a collection length and clamps it against the bytes that
// remain (each element needs at least one byte), so corrupt counts
// cannot drive huge allocations.
func (d *decoder) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) value() types.Value {
	tag := d.byte()
	if d.err != nil {
		return types.Value{}
	}
	typ := types.Type(tag &^ nullBit)
	switch typ {
	case types.TNull, types.TInt, types.TFloat, types.TString, types.TBool, types.TDecimal, types.TDate:
	default:
		d.fail("unknown value type %d", typ)
		return types.Value{}
	}
	if tag&nullBit != 0 {
		return types.NewNull(typ)
	}
	switch typ {
	case types.TInt:
		return types.NewInt(d.varint())
	case types.TDate:
		return types.NewDate(d.varint())
	case types.TBool:
		c := d.byte()
		if c > 1 {
			d.fail("bad bool byte %d", c)
		}
		return types.NewBool(c == 1)
	case types.TFloat:
		fb := d.bytes(8)
		if d.err != nil {
			return types.Value{}
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(fb)))
	case types.TString:
		return types.NewString(d.string())
	case types.TDecimal:
		coef := d.varint()
		scale := d.varint()
		if scale < 0 || scale > decimal.MaxScale {
			d.fail("decimal scale %d out of range", scale)
			return types.Value{}
		}
		return types.NewDecimal(decimal.New(coef, int32(scale)))
	case types.TNull:
		// A non-null TNull tag is not producible by the encoder.
		d.fail("non-null TNull value")
	}
	return types.Value{}
}

// EncodeRecord renders a record payload (frame it with AppendFrame).
func EncodeRecord(rec Record) []byte {
	var b []byte
	switch r := rec.(type) {
	case *CommitRecord:
		// One allocation: a varint is at most 10 bytes, so a tag byte and
		// two of them bound every header here at 24 bytes and a value at
		// 16 beyond its string.
		n := 24
		for _, t := range r.Tables {
			n += 24 + len(t.Table)
			for _, op := range t.Ops {
				n += 24 + 16*len(op.Row)
				for _, v := range op.Row {
					if v.Typ == types.TString && !v.IsNull() {
						n += len(v.Str())
					}
				}
			}
		}
		b = make([]byte, 0, n)
		b = append(b, recCommit)
		b = appendUvarint(b, r.TS)
		b = appendUvarint(b, uint64(len(r.Tables)))
		for _, t := range r.Tables {
			b = appendString(b, t.Table)
			b = appendUvarint(b, uint64(len(t.Ops)))
			for _, op := range t.Ops {
				b = append(b, byte(op.Kind))
				b = appendUvarint(b, uint64(len(op.Row)))
				for _, v := range op.Row {
					b = AppendValue(b, v)
				}
			}
		}
	case *CreateTableRecord:
		b = append(b, recCreateTable)
		b = appendString(b, r.Name)
		b = appendUvarint(b, uint64(len(r.Schema)))
		for _, c := range r.Schema {
			b = appendString(b, c.Name)
			b = append(b, byte(c.Type))
			if c.NotNull {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	case *DropTableRecord:
		b = append(b, recDropTable)
		b = appendString(b, r.Name)
	case *AddKeyRecord:
		b = append(b, recAddKey)
		b = appendString(b, r.Table)
		b = appendKeyDef(b, r.Key)
	case *AddForeignKeyRecord:
		b = append(b, recAddForeignKey)
		b = appendString(b, r.Table)
		b = appendString(b, r.FK.Name)
		b = appendString(b, r.FK.RefTable)
		b = appendUvarint(b, uint64(len(r.FK.Columns)))
		for _, c := range r.FK.Columns {
			b = appendUvarint(b, uint64(c))
		}
	default:
		panic(fmt.Sprintf("wal: EncodeRecord: unknown record %T", rec))
	}
	return b
}

func appendKeyDef(b []byte, k KeyDef) []byte {
	b = appendString(b, k.Name)
	if k.Primary {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendUvarint(b, uint64(len(k.Columns)))
	for _, c := range k.Columns {
		b = appendUvarint(b, uint64(c))
	}
	return b
}

// maxColumns bounds decoded column ordinals and schema widths; corrupt
// records cannot describe absurd shapes.
const maxColumns = 1 << 16

// DecodeRecord parses a record payload. It never panics: corrupt input
// yields an error.
func DecodeRecord(payload []byte) (Record, error) {
	d := &decoder{b: payload}
	kind := d.byte()
	if d.err != nil {
		return nil, d.err
	}
	var rec Record
	switch kind {
	case recCommit:
		r := &CommitRecord{TS: d.uvarint()}
		nTables := d.count()
		for i := 0; i < nTables && d.err == nil; i++ {
			t := TableOps{Table: d.string()}
			nOps := d.count()
			for j := 0; j < nOps && d.err == nil; j++ {
				op := RowOp{Kind: OpKind(d.byte())}
				if op.Kind != OpInsert && op.Kind != OpDelete {
					d.fail("unknown row op kind %d", op.Kind)
					break
				}
				nVals := d.count()
				for k := 0; k < nVals && d.err == nil; k++ {
					op.Row = append(op.Row, d.value())
				}
				t.Ops = append(t.Ops, op)
			}
			r.Tables = append(r.Tables, t)
		}
		rec = r
	case recCreateTable:
		r := &CreateTableRecord{Name: d.string()}
		nCols := d.count()
		for i := 0; i < nCols && d.err == nil; i++ {
			name := d.string()
			typ := types.Type(d.byte())
			nn := d.byte()
			if nn > 1 {
				d.fail("bad notnull byte %d", nn)
				break
			}
			r.Schema = append(r.Schema, types.Column{Name: name, Type: typ, NotNull: nn == 1})
		}
		rec = r
	case recDropTable:
		rec = &DropTableRecord{Name: d.string()}
	case recAddKey:
		r := &AddKeyRecord{Table: d.string()}
		r.Key = d.keyDef()
		rec = r
	case recAddForeignKey:
		r := &AddForeignKeyRecord{Table: d.string()}
		r.FK.Name = d.string()
		r.FK.RefTable = d.string()
		r.FK.Columns = d.ordinals()
		rec = r
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after record", len(d.b)-d.off)
	}
	return rec, nil
}

func (d *decoder) keyDef() KeyDef {
	k := KeyDef{Name: d.string()}
	p := d.byte()
	if p > 1 {
		d.fail("bad primary byte %d", p)
		return k
	}
	k.Primary = p == 1
	k.Columns = d.ordinals()
	return k
}

func (d *decoder) ordinals() []int {
	n := d.count()
	var out []int
	for i := 0; i < n && d.err == nil; i++ {
		v := d.uvarint()
		if v >= maxColumns {
			d.fail("column ordinal %d out of range", v)
			return out
		}
		out = append(out, int(v))
	}
	return out
}

// CommitTS returns the commit timestamp of a commit record, 0 for DDL.
func CommitTS(rec Record) uint64 {
	if c, ok := rec.(*CommitRecord); ok {
		return c.TS
	}
	return 0
}
