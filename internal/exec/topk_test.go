package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"vdm/internal/types"
)

// topKInput builds a row set with heavy duplication on the sort key so
// tie-breaking is actually exercised: (k, seq) with k cycling 0..9.
func topKInput(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 10)), types.NewInt(int64(i))}
	}
	// A few NULL keys to pin NULL ordering.
	rows = append(rows,
		types.Row{types.NewNull(types.TInt), types.NewInt(int64(n))},
		types.Row{types.NewNull(types.TInt), types.NewInt(int64(n + 1))},
	)
	return rows
}

func drainAll(t *testing.T, it Iterator) []types.Row {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rows, err := drainRows(it, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestTopKMatchesSortLimit verifies the ORDER BY operator, bounded to a
// top-k heap or keeping every row, produces exactly the rows a stable
// full sort sliced to the page produces, for ascending/descending keys,
// ties, offsets, and out-of-range limits.
func TestTopKMatchesSortLimit(t *testing.T) {
	rows := topKInput(100)
	cases := []struct {
		desc          bool
		offset, count int64
	}{
		{false, 0, 5},
		{false, 0, 17},
		{true, 0, 5},
		{false, 3, 7},
		{true, 10, 10},
		{false, 0, 0},
		{false, 0, 1000}, // keep > input
		{true, 98, 10},   // offset near the end
		{false, 200, 5},  // offset past the end
		{false, 0, -1},   // bare ORDER BY
		{true, 0, -1},
		{true, 7, -1},              // OFFSET without LIMIT
		{false, 1, math.MaxInt64},  // window end overflows
		{true, 200, math.MaxInt64}, // ... and the offset is past the end
	}
	for _, c := range cases {
		name := fmt.Sprintf("desc=%v/off=%d/cnt=%d", c.desc, c.offset, c.count)
		keys := []sortKeySpec{{idx: 0, desc: c.desc}}
		want := slices.Clone(rows)
		sort.SliceStable(want, func(i, j int) bool {
			cmp, _ := compareRows(want[i], want[j], keys)
			return cmp < 0
		})
		want = want[min(c.offset, int64(len(want))):]
		if c.count >= 0 {
			want = want[:min(c.count, int64(len(want)))]
		}
		got := drainAll(t, &sortIter{
			sortPage: sortPage{keys: keys, offset: c.offset, count: c.count},
			input:    &valuesIter{rows: rows},
		})
		if len(got) != len(want) {
			t.Errorf("%s: got %d rows, want %d", name, len(got), len(want))
			continue
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j].Key() != want[i][j].Key() {
					t.Errorf("%s: row %d col %d: got %v, want %v", name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestTopKTieBreakIsInputOrder pins that equal-key rows survive the cut
// in input order, exactly as the stable sort would keep them.
func TestTopKTieBreakIsInputOrder(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(1), types.NewString("first")},
		{types.NewInt(1), types.NewString("second")},
		{types.NewInt(1), types.NewString("third")},
		{types.NewInt(0), types.NewString("smallest")},
	}
	got := drainAll(t, &sortIter{
		sortPage: sortPage{keys: []sortKeySpec{{idx: 0}}, count: 2},
		input:    &valuesIter{rows: rows},
	})
	if len(got) != 2 || got[0][1].Str() != "smallest" || got[1][1].Str() != "first" {
		t.Fatalf("tie-break violated: got %v", got)
	}
}
