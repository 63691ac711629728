package storage

import (
	"fmt"
	"math"
	"sort"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// Table statistics. The storage layer is the authority on how much data
// exists and what it looks like; the planner's estimator (internal/stats)
// consumes these numbers through the binder. Three freshness tiers keep
// the cost of statistics near zero:
//
//   - The visible row count is exact and always fresh: it is a counter
//     maintained inline by every insert/delete/rollback.
//   - Distinct counts for unique-key columns are exact and always fresh:
//     they are the size of the unique index the table maintains anyway.
//   - Full column statistics (distinct counts from the dictionary
//     encodings, min/max from zone maps, null counts) are rebuilt by
//     RefreshStats, and by delta merge and vacuum once the rows inserted
//     and deleted since the last refresh reach 1/amortizeShare of the
//     table — the walk over the table is then paid for by the changes
//     that made it worthwhile. Between refreshes they may lag the data;
//     the estimator treats them as estimates, and the DB-level stats
//     epoch (see statsEpoch in db.go) tells plan caches when staleness
//     could matter.

// StatsSnapshot returns the table's current statistics: the exact
// visible row count, the column statistics from the last refresh (zero
// values when never refreshed), with distinct counts of single-column
// unique keys overlaid from the live unique indexes.
func (t *Table) StatsSnapshot() types.TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := types.TableStats{
		Rows: t.liveRows,
		Cols: make([]types.ColStats, len(t.schema)),
	}
	copy(st.Cols, t.colStats)
	for ki, k := range t.keys {
		if len(k.Columns) != 1 || ki >= len(t.data.uniqueIdx) {
			continue
		}
		if n := int64(len(t.data.uniqueIdx[ki])); n > 0 {
			st.Cols[k.Columns[0]].Distinct = n
		}
	}
	return st
}

// RefreshStats rebuilds the per-column statistics from the current data
// and bumps the owning DB's stats epoch if they moved materially (see
// refreshStatsLocked). Delta merge and vacuum call it implicitly when a
// refresh is due.
func (t *Table) RefreshStats() {
	t.mu.Lock()
	moved := t.refreshStatsLocked()
	t.mu.Unlock()
	if moved {
		t.bumpStatsEpoch()
	}
}

// refreshStatsIfDueLocked recomputes the statistics if they were never
// computed or the table's churn since reached 1/amortizeShare of its
// rows, and reports whether they moved materially. Caller holds t.mu.
func (t *Table) refreshStatsIfDueLocked() (moved bool) {
	if t.colStats != nil && (t.statsChurn == 0 || t.statsChurn*amortizeShare < t.liveRows) {
		return false
	}
	return t.refreshStatsLocked()
}

// countLive returns, over the given row positions of a column whose main
// fragment holds m rows, the number of NULLs and — when distinct is set —
// the exact number of distinct non-NULL values, keyed on the typed value
// that key reads from the main (true) or delta fragment at position i.
// hint sizes the set.
func countLive[K comparable](live []int, m int, mainNulls, deltaNulls *nullBitmap,
	distinct bool, hint int64, key func(main bool, i int) K) (nulls, distinctN int64) {
	if !distinct && len(mainNulls.words) == 0 && len(deltaNulls.words) == 0 {
		return 0, 0
	}
	var set map[K]struct{}
	if distinct {
		set = make(map[K]struct{}, hint)
	}
	for _, r := range live {
		main, i, nb := true, r, mainNulls
		if r >= m {
			main, i, nb = false, r-m, deltaNulls
		}
		if nb.get(i) {
			nulls++
		} else if distinct {
			set[key(main, i)] = struct{}{}
		}
	}
	return nulls, int64(len(set))
}

// liveCounts is countLive over the column's fragments. Strings build no
// set: their distinct count is the size of the dictionary encodings
// (main + delta), an upper bound that may count values held only by dead
// row versions.
func (c *column) liveCounts(live []int, distinct bool, hint int64) (nulls, distinctN int64) {
	m := c.main.len()
	switch mf := c.main.(type) {
	case *intFragment:
		df := c.delta.(*intFragment)
		return countLive(live, m, &mf.nulls, &df.nulls, distinct, hint, func(main bool, i int) int64 {
			if main {
				return mf.vals[i]
			}
			return df.vals[i]
		})
	case *floatFragment:
		df := c.delta.(*floatFragment)
		return countLive(live, m, &mf.nulls, &df.nulls, distinct, hint, func(main bool, i int) uint64 {
			if main {
				return math.Float64bits(mf.vals[i])
			}
			return math.Float64bits(df.vals[i])
		})
	case *boolFragment:
		df := c.delta.(*boolFragment)
		return countLive(live, m, &mf.nulls, &df.nulls, distinct, 2, func(main bool, i int) bool {
			if main {
				return mf.vals.get(i)
			}
			return df.vals.get(i)
		})
	case *decimalFragment:
		df := c.delta.(*decimalFragment)
		return countLive(live, m, &mf.nulls, &df.nulls, distinct, hint, func(main bool, i int) decimal.Decimal {
			f := mf
			if !main {
				f = df
			}
			return decimal.Decimal{Coef: f.coefs[i], Scale: f.scales[i]}.Normalize()
		})
	case *stringFragment:
		df := c.delta.(*stringFragment)
		nulls, _ = countLive[struct{}](live, m, &mf.nulls, &df.nulls, false, 0, nil)
		return nulls, int64(mf.distinctCount() + df.distinctCount())
	}
	panic(fmt.Sprintf("storage: no statistics for %s column", c.typ))
}

// refreshStatsLocked recomputes colStats and reports whether the new
// statistics differ materially from the ones they replace — a column's
// distinct count or the table's row count in another order-of-magnitude
// bucket, or a column gaining or losing its min/max — which is what the
// caller bumps the stats epoch on. Caller holds t.mu.
func (t *Table) refreshStatsLocked() (moved bool) {
	d := t.data
	cols := make([]types.ColStats, len(t.schema))
	// A single-column unique key's distinct count is the size of its
	// index, which StatsSnapshot overlays: no set is built for it.
	uniqueCol := make([]bool, len(t.schema))
	for _, k := range t.keys {
		if len(k.Columns) == 1 {
			uniqueCol[k.Columns[0]] = true
		}
	}
	// Dead and rolled-back versions do not count.
	live := make([]int, 0, t.liveRows)
	for r := range d.begin {
		if d.end[r] == endInfinity && d.begin[r] != endInfinity {
			live = append(live, r)
		}
	}
	for c := range t.schema {
		cs := &cols[c]
		col := d.cols[c]
		// The exact distinct set is sized by the last count.
		var hint int64
		if c < len(t.colStats) {
			hint = t.colStats[c].Distinct
		}
		cs.Nulls, cs.Distinct = col.liveCounts(live, !uniqueCol[c], hint)
		// Min/max come from the zone maps over the main fragment when
		// present; the walk over the visible rows extends them over the
		// delta (and over everything when zone maps were never built).
		walkFrom := 0
		if c < len(d.zoneMaps) && d.zoneMaps[c] != nil {
			zm := d.zoneMaps[c]
			for _, z := range zm.zones {
				if !z.has {
					continue
				}
				foldMinMax(cs, z.min)
				foldMinMax(cs, z.max)
			}
			walkFrom = zm.rows
		}
		for _, r := range live[sort.SearchInts(live, walkFrom):] {
			if v := col.get(r); !v.IsNull() {
				foldMinMax(cs, v)
			}
		}
	}
	moved = len(cols) != len(t.colStats) || rowBucket(t.statsRows) != rowBucket(t.liveRows)
	for c := 0; !moved && c < len(cols); c++ {
		was, now := &t.colStats[c], &cols[c]
		moved = rowBucket(was.Distinct) != rowBucket(now.Distinct) || was.HasMinMax != now.HasMinMax
	}
	t.colStats, t.statsRows, t.statsChurn = cols, t.liveRows, 0
	t.metrics.StatsRefreshes.Inc()
	return moved
}

// foldMinMax widens cs.Min/cs.Max to include v (non-NULL).
func foldMinMax(cs *types.ColStats, v types.Value) {
	if !cs.HasMinMax {
		cs.Min, cs.Max, cs.HasMinMax = v, v, true
		return
	}
	if c, err := types.Compare(v, cs.Min); err == nil && c < 0 {
		cs.Min = v
	}
	if c, err := types.Compare(v, cs.Max); err == nil && c > 0 {
		cs.Max = v
	}
}

// bumpStatsEpoch advances the owning DB's stats epoch (no-op for
// standalone tables).
func (t *Table) bumpStatsEpoch() {
	if t.db != nil {
		t.db.statsEpoch.Add(1)
	}
}

// rowBucket maps a visible row count to its order-of-magnitude bucket
// (0 for empty, 1 for 1–9, 2 for 10–99, ...). Commits that move a table
// across a bucket boundary bump the DB stats epoch: a cached plan's
// cost-based choices are only revisited when table sizes change enough
// to plausibly change them.
func rowBucket(n int64) int {
	b := 0
	for n > 0 {
		b++
		n /= 10
	}
	return b
}
