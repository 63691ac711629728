package types

import (
	"fmt"
	"math/bits"
	"strings"
)

// ColumnID identifies a column instance within one query. IDs are
// allocated by the binder: every base-table scan instance and every
// computed expression gets fresh IDs, so the same catalog column scanned
// twice (e.g. in a self-join) has two distinct ColumnIDs.
type ColumnID int32

// ColSet is a set of ColumnIDs, implemented as a bitmap. The zero value
// is the empty set. ColSet values are treated as immutable once shared;
// mutating methods have pointer receivers.
type ColSet struct {
	words []uint64
}

// MakeColSet returns a set containing the given columns.
func MakeColSet(cols ...ColumnID) ColSet {
	var s ColSet
	for _, c := range cols {
		s.Add(c)
	}
	return s
}

// Add inserts c into the set.
func (s *ColSet) Add(c ColumnID) {
	if c < 0 {
		panic("types: negative ColumnID")
	}
	w := int(c) / 64
	switch n := len(s.words); {
	case w == n:
		s.words = append(s.words, 0)
	case w > n:
		s.words = append(s.words, make([]uint64, w+1-n)...)
	}
	s.words[w] |= 1 << (uint(c) % 64)
}

// Remove deletes c from the set.
func (s *ColSet) Remove(c ColumnID) {
	w := int(c) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(c) % 64)
	}
}

// Contains reports whether c is in the set.
func (s ColSet) Contains(c ColumnID) bool {
	w := int(c) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(c)%64)) != 0
}

// Empty reports whether the set has no elements.
func (s ColSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s ColSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns s ∪ o.
func (s ColSet) Union(o ColSet) ColSet {
	out := ColSet{words: make([]uint64, max(len(s.words), len(o.words)))}
	copy(out.words, s.words)
	for i, w := range o.words {
		out.words[i] |= w
	}
	return out
}

// Intersect returns s ∩ o.
func (s ColSet) Intersect(o ColSet) ColSet {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := ColSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & o.words[i]
	}
	return out
}

// Difference returns s \ o.
func (s ColSet) Difference(o ColSet) ColSet {
	out := s.Copy()
	for i := range out.words {
		if i < len(o.words) {
			out.words[i] &^= o.words[i]
		}
	}
	return out
}

// SubsetOf reports whether every element of s is in o.
func (s ColSet) SubsetOf(o ColSet) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share an element.
func (s ColSet) Intersects(o ColSet) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equals reports set equality.
func (s ColSet) Equals(o ColSet) bool {
	return s.SubsetOf(o) && o.SubsetOf(s)
}

// Copy returns an independent copy.
func (s ColSet) Copy() ColSet {
	out := ColSet{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// Ordered returns the elements in ascending order.
func (s ColSet) Ordered() []ColumnID {
	var out []ColumnID
	s.ForEach(func(c ColumnID) { out = append(out, c) })
	return out
}

// ForEach calls fn on each element in ascending order; fn must not
// modify s.
func (s ColSet) ForEach(fn func(ColumnID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(ColumnID(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as "(1,2,5)".
func (s ColSet) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Ordered() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteByte(')')
	return b.String()
}
