package storage

import "vdm/internal/types"

// Batch column readers: FillVecs materializes row positions into typed
// vectors without boxing each value, the entry point of the vectorized
// executor. Strings stay dictionary-encoded — the vector receives raw
// codes plus a DictView over both dictionaries — so downstream kernels
// can compare and group on codes instead of materialized strings.

// FillVecs fills vecs[k] with column ords[k] of the given row positions.
// Each vector is Reset to len(rows) entries of the column's type and
// filled column-at-a-time under a single table-lock acquisition. For
// string columns the vector carries combined dictionary
// codes (delta codes are offset by the main dictionary size) plus a
// DictView capturing both dictionaries; because dictionaries are
// append-only and delta fragments are replaced (not mutated) by merges,
// the view and codes stay consistent after the lock is released — but
// only for this batch: a later fill may observe a merged delta whose
// rows re-encoded to different codes. Safe for concurrent use.
func (s *Snapshot) FillVecs(rows []int, ords []int, vecs []*types.Vec) {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	for k, ord := range ords {
		col := s.data.cols[ord]
		vecs[k].Reset(col.typ, len(rows))
		col.fillVec(rows, vecs[k])
	}
}

// fillVec copies the values at the given row positions into v, which has
// been Reset to len(rows) entries. Caller holds the table lock. Row
// position r maps to the main fragment when r < main.len(), else to the
// delta fragment at r - main.len(), mirroring column.get.
func (c *column) fillVec(rows []int, v *types.Vec) {
	m := c.main.len()
	switch mf := c.main.(type) {
	case *intFragment:
		df := c.delta.(*intFragment)
		for i, r := range rows {
			if r < m {
				if mf.nulls.get(r) {
					v.SetNull(i)
					v.I64[i] = 0
				} else {
					v.I64[i] = mf.vals[r]
				}
			} else {
				if df.nulls.get(r - m) {
					v.SetNull(i)
					v.I64[i] = 0
				} else {
					v.I64[i] = df.vals[r-m]
				}
			}
		}
	case *floatFragment:
		df := c.delta.(*floatFragment)
		for i, r := range rows {
			if r < m {
				if mf.nulls.get(r) {
					v.SetNull(i)
					v.F64[i] = 0
				} else {
					v.F64[i] = mf.vals[r]
				}
			} else {
				if df.nulls.get(r - m) {
					v.SetNull(i)
					v.F64[i] = 0
				} else {
					v.F64[i] = df.vals[r-m]
				}
			}
		}
	case *boolFragment:
		df := c.delta.(*boolFragment)
		for i, r := range rows {
			v.I64[i] = 0
			if r < m {
				if mf.nulls.get(r) {
					v.SetNull(i)
				} else if mf.vals.get(r) {
					v.I64[i] = 1
				}
			} else {
				if df.nulls.get(r - m) {
					v.SetNull(i)
				} else if df.vals.get(r - m) {
					v.I64[i] = 1
				}
			}
		}
	case *decimalFragment:
		df := c.delta.(*decimalFragment)
		for i, r := range rows {
			if r < m {
				if mf.nulls.get(r) {
					v.SetNull(i)
					v.I64[i], v.Scale[i] = 0, 0
				} else {
					v.I64[i], v.Scale[i] = mf.coefs[r], mf.scales[r]
				}
			} else {
				if df.nulls.get(r - m) {
					v.SetNull(i)
					v.I64[i], v.Scale[i] = 0, 0
				} else {
					v.I64[i], v.Scale[i] = df.coefs[r-m], df.scales[r-m]
				}
			}
		}
	case *stringFragment:
		df := c.delta.(*stringFragment)
		base := int32(len(mf.dict.vals))
		v.Dict = types.NewDictView(mf.dict.vals, df.dict.vals)
		for i, r := range rows {
			if r < m {
				if mf.nulls.get(r) {
					v.SetNull(i)
					v.Codes[i] = 0
				} else {
					v.Codes[i] = mf.codes[r]
				}
			} else {
				if df.nulls.get(r - m) {
					v.SetNull(i)
					v.Codes[i] = 0
				} else {
					v.Codes[i] = base + df.codes[r-m]
				}
			}
		}
	default:
		// Unreachable with the current fragment set; box row-at-a-time
		// so a future fragment type degrades instead of corrupting.
		for i, r := range rows {
			val := c.get(r)
			if val.IsNull() {
				v.SetNull(i)
			} else {
				switch v.Typ {
				case types.TFloat:
					v.F64[i] = val.Float()
				default:
					v.I64[i] = val.Int()
				}
			}
		}
	}
}
