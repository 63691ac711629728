package storage

import (
	"vdm/internal/types"
)

// Zone maps: per-block min/max summaries over the main fragment of a
// column, the mechanism behind the partition pruning the paper's §2.2
// describes for range-partitioned tables (S/4HANA tunes physical layout
// "so that partition pruning can be applied effectively"). Blocks of
// zoneBlockSize rows are skipped wholesale when a scan's range
// constraint cannot overlap the block's [min,max].
//
// Zone maps cover the read-optimized main fragment; delta rows are
// always scanned (they are few between merges, mirroring the
// write-optimized delta of the paper's storage engine).

// zoneBlockSize is the number of rows summarized per zone.
const zoneBlockSize = 1024

// zone is one block summary. Valid only when has is true (a block of
// all-NULL values has no min/max).
type zone struct {
	min, max types.Value
	has      bool
	hasNull  bool
}

// zoneMap summarizes one column's main fragment.
type zoneMap struct {
	zones []zone
	rows  int // rows covered
}

// extend brings the summaries up to the whole of f. Rows already covered
// never change (a main fragment only grows), so only the last, partial
// block is summarized again: the cost follows the rows added, not the
// fragment.
func (zm *zoneMap) extend(f fragment) {
	n := f.len()
	zm.zones = zm.zones[:zm.rows/zoneBlockSize]
	for lo := len(zm.zones) * zoneBlockSize; lo < n; lo += zoneBlockSize {
		zm.zones = append(zm.zones, f.zone(lo, min(lo+zoneBlockSize, n)))
	}
	zm.rows = n
}

// ColRange is a half-open/closed range constraint on a column, used by
// scans for block pruning. Nil bounds are unbounded. Eq, when set,
// dominates the bounds.
type ColRange struct {
	Ord    int
	Eq     *types.Value
	Lo, Hi *types.Value
	LoOpen bool
	HiOpen bool
}

// blockMayMatch reports whether any value in the zone could satisfy the
// range. NULL handling: ranges never match NULLs, but a block with
// NULLs may still contain matching non-NULL values; an all-NULL block
// (has == false) cannot match.
func (z *zone) blockMayMatch(r *ColRange) bool {
	if !z.has {
		return false
	}
	ge := func(a, b types.Value) bool {
		c, err := types.Compare(a, b)
		return err != nil || c >= 0
	}
	gt := func(a, b types.Value) bool {
		c, err := types.Compare(a, b)
		return err != nil || c > 0
	}
	if r.Eq != nil {
		return ge(*r.Eq, z.min) && ge(z.max, *r.Eq)
	}
	if r.Lo != nil {
		if r.LoOpen {
			if !gt(z.max, *r.Lo) {
				return false
			}
		} else if !ge(z.max, *r.Lo) {
			return false
		}
	}
	if r.Hi != nil {
		if r.HiOpen {
			if !gt(*r.Hi, z.min) {
				return false
			}
		} else if !ge(*r.Hi, z.min) {
			return false
		}
	}
	return true
}

// extendZoneMaps extends every column's zone map (building it on first
// use) over the rows its main fragment gained since the last call.
func (d *tableData) extendZoneMaps() {
	if d.zoneMaps == nil {
		d.zoneMaps = make([]*zoneMap, len(d.cols))
		for i := range d.zoneMaps {
			d.zoneMaps[i] = &zoneMap{}
		}
	}
	for i, c := range d.cols {
		d.zoneMaps[i].extend(c.main)
	}
}

// zoneSkip returns the first row position >= r whose zone-mapped block
// may satisfy all the given range constraints (r itself when its block
// may match, or pruning does not apply). Rows beyond zone-map coverage
// (the delta) are never skipped. Caller holds the owning table's mu
// (read lock suffices: ZoneMapSkips is atomic).
func (d *tableData) zoneSkip(r int, ranges []ColRange, m *Metrics) int {
	if len(ranges) == 0 || d.zoneMaps == nil {
		return r
	}
	for {
		skipped := false
		for _, cr := range ranges {
			if cr.Ord >= len(d.zoneMaps) || d.zoneMaps[cr.Ord] == nil {
				continue
			}
			zm := d.zoneMaps[cr.Ord]
			if r >= zm.rows {
				continue
			}
			bi := r / zoneBlockSize
			if bi < len(zm.zones) && !zm.zones[bi].blockMayMatch(&cr) {
				// Clamp the jump to zone-map coverage: positions past
				// zm.rows are delta rows, which zone maps do not
				// summarize and must always be scanned.
				r = (bi + 1) * zoneBlockSize
				if r > zm.rows {
					r = zm.rows
				}
				m.ZoneMapSkips.Inc()
				skipped = true
				break
			}
		}
		if !skipped {
			return r
		}
	}
}

// zoneRunEnd bounds how far a zoneSkip verdict at row r remains valid:
// to the end of r's zone block (clamped to hi), or all the way to hi
// when no zone pruning applies. Zone blocks are aligned at multiples of
// zoneBlockSize for every column, so one may-match verdict covers the
// whole block for all range constraints at once.
func (d *tableData) zoneRunEnd(r, hi int, ranges []ColRange) int {
	if len(ranges) == 0 || d.zoneMaps == nil {
		return hi
	}
	end := (r/zoneBlockSize + 1) * zoneBlockSize
	if end > hi {
		return hi
	}
	return end
}
