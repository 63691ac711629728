package exec

import (
	"fmt"
	"sort"

	"vdm/internal/types"
)

// topKIter fuses ORDER BY + LIMIT into a bounded-memory top-k: instead
// of materializing and sorting the whole input, it keeps the best
// offset+count rows in a max-heap (O(n log k) comparisons, O(k)
// memory). Ties on the sort keys break by input sequence number, which
// makes the result identical to the stable full sort the serial
// sortIter performs.
type topKIter struct {
	input  Iterator
	keys   []sortKeySpec
	offset int64
	count  int64 // >= 0
	gov    *Governance
	acct   memAcct

	rows []types.Row
	pos  int
}

// topkItem is one heap candidate: a row and its arrival sequence number.
type topkItem struct {
	row types.Row
	seq int
}

// topkHeap is a bounded max-heap of candidates shared by the row and
// batch top-k: the root is the worst row kept, evicted as soon as a
// better candidate arrives. Comparison errors (values of incompatible
// types, e.g. across UNION ALL branches) are captured on first
// occurrence.
type topkHeap struct {
	items []topkItem
	keep  int
	keys  []sortKeySpec
	err   error
}

// after reports whether a sorts after b: worse key, or equal keys with
// later arrival.
func (h *topkHeap) after(a, b *topkItem) bool {
	c, err := compareRows(a.row, b.row, h.keys)
	if err != nil && h.err == nil {
		h.err = err
	}
	if c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

// rejects reports whether a full heap turns the candidate away. Only
// the candidate row's sort-key positions are read, so a caller can test
// a candidate before boxing the rest of its row.
func (h *topkHeap) rejects(c *topkItem) bool {
	return len(h.items) == h.keep && !h.after(&h.items[0], c)
}

// push offers a candidate, reporting whether the heap grew (the only
// case that allocates and therefore meters).
func (h *topkHeap) push(it topkItem) bool {
	if len(h.items) < h.keep {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return true
	}
	if h.after(&h.items[0], &it) {
		h.items[0] = it
		h.down(0)
	}
	return false
}

func (h *topkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.after(&h.items[i], &h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *topkHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && h.after(&h.items[r], &h.items[l]) {
			c = r
		}
		if !h.after(&h.items[c], &h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// page returns the kept rows past offset, in output order.
func (h *topkHeap) page(offset int64) ([]types.Row, error) {
	items := h.items
	sort.Slice(items, func(i, j int) bool { return h.after(&items[j], &items[i]) })
	if h.err != nil {
		return nil, h.err
	}
	start := int(min(offset, int64(len(items))))
	rows := make([]types.Row, 0, len(items)-start)
	for _, it := range items[start:] {
		rows = append(rows, it.row)
	}
	return rows, nil
}

func (t *topKIter) Open() error {
	if err := t.input.Open(); err != nil {
		return err
	}
	t.acct = memAcct{gov: t.gov}
	if err := t.gov.point(PointTopK); err != nil {
		return err
	}
	t.rows, t.pos = nil, 0
	keep := int(t.offset + t.count)
	if keep <= 0 {
		return nil
	}
	h := &topkHeap{keep: keep, keys: t.keys}
	stride := govStride{gov: t.gov}
	for seq := 0; ; seq++ {
		row, ok, err := t.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := stride.tick(); err != nil {
			return err
		}
		// Only heap growth is metered: the heap is bounded at keep rows,
		// replacements reuse the slot.
		if h.push(topkItem{row: row, seq: seq}) {
			if err := t.acct.add(rowBytes(row)); err != nil {
				return err
			}
		}
		if h.err != nil {
			return h.err
		}
	}
	rows, err := h.page(t.offset)
	t.rows = rows
	return err
}

func (t *topKIter) Next() (types.Row, bool, error) {
	if t.pos >= len(t.rows) {
		return nil, false, nil
	}
	row := t.rows[t.pos]
	t.pos++
	return row, true, nil
}

func (t *topKIter) Close() {
	t.input.Close()
	t.acct.close()
	t.rows = nil
}

func (t *topKIter) buildStats() (int64, int64) {
	return rowSetBytes(t.rows)
}

func (t *topKIter) extraStats(st *OpStats) {
	st.Note = fmt.Sprintf("top_k=%d", t.offset+t.count)
}
