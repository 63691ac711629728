package storage

import "vdm/internal/types"

// Batch column readers: FillVecs materializes row positions into typed
// vectors without boxing each value, the entry point of the vectorized
// executor. Visible positions mostly come in long runs, so a fill copies
// each run of consecutive positions by slice and its NULLs a bitmap word
// at a time; a vector with no NULL keeps an empty bitmap, the kernels'
// null-free fast path. Strings stay dictionary-encoded — the vector
// receives raw codes plus a DictView over both dictionaries — so
// downstream kernels can compare and group on codes instead of
// materialized strings.

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
// delta fragment at r - main.len(), mirroring column.get. The sorted
// positions split into maximal runs of consecutive positions within one
// fragment, and each run is copied by the fragment's fill kernel. Sorted
// distinct positions rows[i..j] are consecutive iff rows[j]-rows[i] ==
// j-i, so a run's end is found by galloping then bisecting, not row by
// row.
func (c *column) fillVec(rows []int, v *types.Vec) {
	m := c.main.len()
	var base int32 // a delta string code's offset: the main dictionary's size
	if mf, ok := c.main.(*stringFragment); ok {
		base = int32(len(mf.dict.vals))
		v.Dict = types.NewDictView(mf.dict.vals, c.delta.(*stringFragment).dict.vals)
	}
	for i := 0; i < len(rows); {
		r, n, hi := rows[i], 1, len(rows)-i
		if r < m {
			hi = min(hi, m-r)
		}
		for n < hi { // rows[i:i+n] is a run; it ends at or before i+hi
			k := min(2*n, hi)
			if rows[i+k-1]-r != k-1 {
				hi = k - 1
				break
			}
			n = k
		}
		for n < hi {
			if mid := (n + hi + 1) / 2; rows[i+mid-1]-r == mid-1 {
				n = mid
			} else {
				hi = mid - 1
			}
		}
		if r < m {
			c.main.fill(v, i, r, n, 0)
		} else {
			c.delta.fill(v, i, r-m, n, base)
		}
		i += n
	}
}
