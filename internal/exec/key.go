package exec

import (
	"math"
	"slices"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// Typed hash keys. The row operators encode their key values into a
// reusable byte buffer with types.Value.AppendKey instead of building
// strings through fmt: the only allocation left on the hot path is the
// map-key string created when a key is first inserted (lookups via
// m[string(buf)] compile to an allocation-free map access). The batch
// operators number key tuples with a keyIndex, which never encodes one.

// appendEvalKey evaluates the key expressions against row and appends
// their composite encoding to dst. null reports that at least one key
// value was NULL (equi-join keys never match then).
func appendEvalKey(dst []byte, row types.Row, keys []EvalFn) (out []byte, null bool, err error) {
	for _, fn := range keys {
		v, err := fn(row)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		dst = v.AppendKey(dst)
	}
	return dst, false, nil
}

// keyEntryBytes is the charged footprint of one keyIndex map entry: its
// key, its id and the map's per-entry overhead.
const keyEntryBytes = 24

// keyIndex numbers the distinct key tuples of batch rows densely — 0, 1,
// 2, … in first-seen order — for the batch join, group-by and DISTINCT.
// Two tuples share an id iff their Value.AppendKey encodings are equal,
// so the batch operators group and match exactly as the row operators'
// appendEvalKey bytes do.
//
// Each key column numbers its values from one counter, by value class:
// the integer family (TInt, TDate and TBool share AppendKey's tag) by
// payload, floats by their bits, decimals normalized, strings by their
// bytes. Values of two classes therefore never share an id, and an int
// column matches a date column. A dictionary-coded string resolves each
// code once per dictionary view. A composite key folds its column ids
// pairwise, left to right, through one uint64-keyed map per fold.
//
// With nulls set, NULL is one more value of each column (GROUP BY,
// DISTINCT); without, a tuple holding a NULL gets id -1 and never
// matches (a join). The index meters its map entries and string bytes
// through acct.
type keyIndex struct {
	nulls bool
	acct  *memAcct
	cols  []keyCol
	// folds[k] maps (id of columns 0..k, id of column k+1) to the id of
	// columns 0..k+1.
	folds   []map[uint64]int32
	scratch []int32 // one column's ids, while folding
	grown   int64   // bytes added since the last meter
}

// keyCol numbers one key column's values.
type keyCol struct {
	n      int32 // ids handed out
	null   int32 // NULL's id + 1; 0 while NULL has none
	ints   map[int64]int32
	floats map[uint64]int32
	decs   map[decimal.Decimal]int32
	strs   map[string]int32
	memo   epochMemo[int32] // slot 0 NULL, k+1 code k → id (-1: absent), per view
}

func newKeyIndex(ncols int, nulls bool, acct *memAcct) keyIndex {
	ix := keyIndex{nulls: nulls, acct: acct, cols: make([]keyCol, ncols)}
	for k := 1; k < ncols; k++ {
		ix.folds = append(ix.folds, make(map[uint64]int32))
	}
	return ix
}

// forProbe returns a copy of a built index for one execution's lookups:
// the key maps are shared and only read (a lookup never writes them),
// while the per-view memos and the fold scratch are the copy's own and
// start empty, and nothing is metered.
func (ix keyIndex) forProbe() keyIndex {
	ix.acct, ix.scratch, ix.grown = nil, nil, 0
	ix.cols = slices.Clone(ix.cols)
	for k := range ix.cols {
		ix.cols[k].memo = epochMemo[int32]{}
	}
	return ix
}

// size returns the number of ids handed out.
func (ix *keyIndex) size() int {
	if len(ix.folds) > 0 {
		return len(ix.folds[len(ix.folds)-1])
	}
	return int(ix.cols[0].n)
}

// insert appends to dst the ids of the key tuples in columns cols of b's
// rows, a new tuple taking the next id, and meters the growth.
func (ix *keyIndex) insert(b *Batch, cols []int, rows []int32, dst []int32) ([]int32, error) {
	dst = ix.ids(b, cols, rows, true, dst)
	n := ix.grown
	ix.grown = 0
	return dst, ix.acct.add(n)
}

// lookup appends to dst the ids of the key tuples in columns cols of b's
// rows, -1 for a tuple the index does not hold; it never inserts and
// writes only the memos and scratch, never the key maps. It
// memoizes a dictionary code's miss, so every insert precedes the first
// lookup.
func (ix *keyIndex) lookup(b *Batch, cols []int, rows []int32, dst []int32) []int32 {
	return ix.ids(b, cols, rows, false, dst)
}

// ids is insert with add set, else lookup, without the metering.
func (ix *keyIndex) ids(b *Batch, cols []int, rows []int32, add bool, dst []int32) []int32 {
	base := len(dst)
	dst = slices.Grow(dst, len(rows))[:base+len(rows)]
	out := dst[base:]
	ix.colIDs(&ix.cols[0], &b.Cols[cols[0]], rows, add, out)
	for k, fold := range ix.folds {
		ix.scratch = slices.Grow(ix.scratch[:0], len(rows))[:len(rows)]
		col := ix.scratch
		ix.colIDs(&ix.cols[k+1], &b.Cols[cols[k+1]], rows, add, col)
		for i, id := range out {
			if id < 0 || col[i] < 0 {
				out[i] = -1
				continue
			}
			pair := uint64(id)<<32 | uint64(col[i])
			f, ok := fold[pair]
			switch {
			case ok:
			case !add:
				f = -1
			default:
				f = int32(len(fold))
				fold[pair] = f
				ix.grown += keyEntryBytes
			}
			out[i] = f
		}
	}
	return dst
}

// colIDs writes the ids of v's values at rows to out.
func (ix *keyIndex) colIDs(c *keyCol, v *types.Vec, rows []int32, add bool, out []int32) {
	if v.Typ == types.TString && len(v.Strs) == 0 {
		// Memo slot 0 is NULL's, slot k+1 code k's. Picking the slot
		// without a branch on the NULL bit spares NULL-dense keys a
		// mispredict: the join probe branches on the outcome next.
		c.memo.nextView(v.Dict)
		for k, ri := range rows {
			slot := (v.Codes[ri] + 1) &^ -nullBit(v, ri)
			id, ok := c.memo.get(slot)
			if !ok {
				if slot == 0 {
					id = ix.nullID(c, add)
				} else {
					s := v.Dict.Decode(slot - 1)
					id = classID(ix, c, &c.strs, s, add, int64(len(s))+16)
				}
				c.memo.put(slot, id)
			}
			out[k] = id
		}
		return
	}
	hasNulls := len(v.Nulls) > 0
	for k, ri := range rows {
		if hasNulls && v.NullAt(int(ri)) {
			out[k] = ix.nullID(c, add)
			continue
		}
		switch v.Typ {
		case types.TInt, types.TDate, types.TBool:
			out[k] = classID(ix, c, &c.ints, v.I64[ri], add, 0)
		case types.TFloat:
			out[k] = classID(ix, c, &c.floats, math.Float64bits(v.F64[ri]), add, 0)
		case types.TDecimal:
			d := decimal.Decimal{Coef: v.I64[ri], Scale: v.Scale[ri]}.Normalize()
			out[k] = classID(ix, c, &c.decs, d, add, 0)
		case types.TString:
			s := v.Strs[ri]
			out[k] = classID(ix, c, &c.strs, s, add, int64(len(s))+16)
		default:
			// Only NULL boxes from a vector of any other type.
			out[k] = ix.nullID(c, add)
		}
	}
}

// nullBit returns 1 when v's row ri is NULL, else 0.
func nullBit(v *types.Vec, ri int32) int32 {
	if w := int(ri >> 6); w < len(v.Nulls) {
		return int32(v.Nulls[w] >> (ri & 63) & 1)
	}
	return 0
}

// nullID returns the id of NULL in column c: -1 in a join, else NULL's
// own id, handed out the first time add meets it.
func (ix *keyIndex) nullID(c *keyCol, add bool) int32 {
	if ix.nulls && c.null == 0 && add {
		c.n++
		c.null = c.n
	}
	return c.null - 1
}

// classID returns key's id in *m. A key *m lacks gets -1 when add is
// unset, else the column's next id, metered as one entry plus extra
// bytes.
func classID[K comparable](ix *keyIndex, c *keyCol, m *map[K]int32, key K, add bool, extra int64) int32 {
	if id, ok := (*m)[key]; ok {
		return id
	}
	if !add {
		return -1
	}
	if *m == nil {
		*m = make(map[K]int32)
	}
	id := c.n
	c.n++
	(*m)[key] = id
	ix.grown += keyEntryBytes + extra
	return id
}
