package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestColSetBasics(t *testing.T) {
	var s ColSet
	if !s.Empty() || s.Len() != 0 {
		t.Error("zero set should be empty")
	}
	s.Add(3)
	s.Add(70)
	s.Add(3)
	if s.Len() != 2 || !s.Contains(3) || !s.Contains(70) || s.Contains(4) {
		t.Errorf("set contents wrong: %s", s)
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Error("Remove failed")
	}
	s.Remove(1000) // no-op
}

func TestColSetOps(t *testing.T) {
	a := MakeColSet(1, 2, 3, 64)
	b := MakeColSet(3, 64, 65)
	if got := a.Union(b); got.Len() != 5 {
		t.Errorf("union = %s", got)
	}
	if got := a.Intersect(b); !got.Equals(MakeColSet(3, 64)) {
		t.Errorf("intersect = %s", got)
	}
	if got := a.Difference(b); !got.Equals(MakeColSet(1, 2)) {
		t.Errorf("difference = %s", got)
	}
	if !MakeColSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !a.Intersects(b) || MakeColSet(9).Intersects(a) {
		t.Error("Intersects wrong")
	}
	if a.String() != "(1,2,3,64)" {
		t.Errorf("String = %s", a.String())
	}
}

func TestColSetOrderedAndForEach(t *testing.T) {
	s := MakeColSet(100, 5, 63, 64)
	want := []ColumnID{5, 63, 64, 100}
	got := s.Ordered()
	if len(got) != len(want) {
		t.Fatalf("Ordered = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ordered = %v", got)
		}
	}
	var visited []ColumnID
	s.ForEach(func(c ColumnID) { visited = append(visited, c) })
	if len(visited) != 4 || visited[0] != 5 {
		t.Errorf("ForEach = %v", visited)
	}
}

func TestColSetCopyIndependence(t *testing.T) {
	a := MakeColSet(1)
	b := a.Copy()
	b.Add(2)
	if a.Contains(2) {
		t.Error("Copy must be independent")
	}
	u := a.Union(MakeColSet(300))
	u.Add(3)
	if a.Contains(3) || a.Contains(300) {
		t.Error("Union must be independent of its operands")
	}
}

// BenchmarkColSetAdd builds sets the way the optimizer does for a wide
// plan: column IDs in the thousands, each Add reaching past the words
// the set holds so far.
func BenchmarkColSetAdd(b *testing.B) {
	var ids []ColumnID
	for id := ColumnID(0); id < 4096; id += 61 {
		ids = append(ids, id)
	}
	b.Run("ascending", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s ColSet
			for _, id := range ids {
				s.Add(id)
			}
		}
	})
	b.Run("high-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s ColSet
			for j := len(ids) - 1; j >= 0; j-- {
				s.Add(ids[j])
			}
		}
	})
}

func genSet(r *rand.Rand) ColSet {
	var s ColSet
	for i := 0; i < r.Intn(20); i++ {
		s.Add(ColumnID(r.Intn(200)))
	}
	return s
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(genSet(r))
		vals[1] = reflect.ValueOf(genSet(r))
	}}
	// A∩B ⊆ A, A ⊆ A∪B, (A\B)∩B = ∅, |A∪B| = |A|+|B|-|A∩B|
	f := func(a, b ColSet) bool {
		inter := a.Intersect(b)
		union := a.Union(b)
		diff := a.Difference(b)
		return inter.SubsetOf(a) &&
			a.SubsetOf(union) &&
			!diff.Intersects(b) &&
			union.Len() == a.Len()+b.Len()-inter.Len()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	cfg := &quick.Config{Values: func(vals []reflect.Value, r *rand.Rand) {
		for i := range vals {
			vals[i] = reflect.ValueOf(genSet(r))
		}
	}}
	// A \ (B ∪ C) == (A\B) ∩ (A\C)
	f := func(a, b, c ColSet) bool {
		lhs := a.Difference(b.Union(c))
		rhs := a.Difference(b).Intersect(a.Difference(c))
		return lhs.Equals(rhs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
