package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vdm/internal/types"
)

// sortPage is the state the row and batch ORDER BY operators share: the
// page [offset, offset+count) they keep (count < 0: every row past
// offset), the memory account the kept rows are metered on, and the
// emitted rows. Both order by topkHeap's rule: bounded to the page it
// is a max-heap (O(n log k) comparisons, O(k) memory), unbounded it
// keeps every row; its tie-break on input sequence makes either a
// stable sort.
type sortPage struct {
	keys          []sortKeySpec
	offset, count int64
	gov           *Governance

	acct memAcct
	rows []types.Row
	pos  int
}

// sortIter is the row executor's one ORDER BY operator, bare (count -1)
// or fused with the LIMIT/OFFSET above it.
type sortIter struct {
	sortPage
	input Iterator
}

// pageEnd returns the end of the page [offset, offset+count), which is
// how many rows an ORDER BY keeps and a LIMIT's scan starts at: -1 (no
// end) when count is negative or offset+count overflows.
func pageEnd(offset, count int64) int64 {
	if count < 0 || count > math.MaxInt64-offset {
		return -1
	}
	return offset + count
}

// topkItem is one heap candidate: a row and its arrival sequence number.
type topkItem struct {
	row types.Row
	seq int
}

// topkHeap holds the candidates of the row and batch ORDER BY. Bounded
// (keep >= 0), it is a max-heap whose root is the worst row kept,
// evicted as soon as a better candidate arrives; unbounded (keep < 0),
// it keeps every candidate and orders them once, in page. Comparison
// errors (values of incompatible types, e.g. across UNION ALL branches)
// are captured on first occurrence.
type topkHeap struct {
	items []topkItem
	keep  int
	keys  []sortKeySpec
	err   error
}

// cmp orders two candidates: by their sort keys, then by arrival. It is
// a total order, since no two candidates share a sequence number.
func (h *topkHeap) cmp(a, b *topkItem) int {
	c, err := compareRows(a.row, b.row, h.keys)
	if err != nil && h.err == nil {
		h.err = err
	}
	if c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// after reports whether a sorts after b: worse key, or equal keys with
// later arrival.
func (h *topkHeap) after(a, b *topkItem) bool { return h.cmp(a, b) > 0 }

// rejects reports whether a full heap turns the candidate away. Only
// the candidate row's sort-key positions are read, so a caller can test
// a candidate before boxing the rest of its row.
func (h *topkHeap) rejects(c *topkItem) bool {
	return len(h.items) == h.keep && !h.after(&h.items[0], c)
}

// push offers a candidate, reporting whether the heap grew (the only
// case that allocates and therefore meters).
func (h *topkHeap) push(it topkItem) bool {
	switch {
	case h.keep < 0:
		h.items = append(h.items, it)
		return true
	case len(h.items) < h.keep:
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
	slices.SortFunc(items, func(a, b topkItem) int { return h.cmp(&a, &b) })
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

// start readies the page for Open: it resets the account and the rows,
// fires the pause point of a full sort or of a top-k, and returns the
// heap to fill, nil when the page is empty.
func (p *sortPage) start() (*topkHeap, error) {
	p.acct = memAcct{gov: p.gov}
	p.rows, p.pos = nil, 0
	keep := pageEnd(p.offset, p.count)
	point := PointTopK
	if keep < 0 {
		point = PointSort
	}
	if err := p.gov.point(point); err != nil || keep == 0 {
		return nil, err
	}
	return &topkHeap{keep: int(keep), keys: p.keys}, nil
}

func (p *sortPage) Next() (types.Row, bool, error) {
	if p.pos >= len(p.rows) {
		return nil, false, nil
	}
	row := p.rows[p.pos]
	p.pos++
	return row, true, nil
}

func (p *sortPage) buildStats() (int64, int64) { return rowSetBytes(p.rows) }
func (p *sortPage) memBytes() int64            { return p.acct.bytes() }

func (p *sortPage) extraStats(st *OpStats) {
	st.Note = topkNote(p.offset, p.count)
}

func (t *sortIter) Open() error {
	if err := t.input.Open(); err != nil {
		return err
	}
	h, err := t.start()
	if h == nil || err != nil {
		return err
	}
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
		// Only heap growth is metered: a bounded heap holds at most keep
		// rows, and replacements reuse the slot.
		if h.push(topkItem{row: row, seq: seq}) {
			if err := t.acct.add(rowBytes(row)); err != nil {
				return err
			}
		}
		if h.err != nil {
			return h.err
		}
	}
	t.rows, err = h.page(t.offset)
	return err
}

func (t *sortIter) Close() {
	t.input.Close()
	t.acct.close()
	t.rows = nil
}

// topkNote is the EXPLAIN ANALYZE note of an ORDER BY operator: its
// top-k window, or nothing when it keeps every row.
func topkNote(offset, count int64) string {
	if keep := pageEnd(offset, count); keep >= 0 {
		return fmt.Sprintf("top_k=%d", keep)
	}
	return ""
}
