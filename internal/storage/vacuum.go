package storage

import (
	"fmt"
	"time"
)

// MVCC version GC. Vacuum physically removes row versions whose end
// timestamp is at or below the snapshot watermark: such versions are
// invisible to every registered reader (their read timestamps are all
// >= the watermark) and to every future reader (new read timestamps
// start at the commit clock, which is >= the watermark). Compaction
// copies the surviving rows of every column fragment and of the
// visibility arrays into a successor store through the typed kernels of
// kernels.go, re-points the unique indexes, rebuilds the zone maps,
// installs the successor as the table's current data version, and
// leaves an old→new position remap on the retired version so pinned
// snapshots and buffered transaction writes can translate their row
// positions forward.
//
// A compaction costs O(table) with the commit lock and the table write
// lock held, however few versions it reclaims. Direct calls (Vacuum,
// VacuumTable, DB.Vacuum) compact whenever at least one version is
// reclaimable. The background pass (DB.VacuumAmortized) compacts a table
// only once the reclaimable versions reach 1/amortizeShare of the stored
// ones, so every rebuild is paid for by the garbage it collects, and
// until then scans read at most that share of dead versions extra.

// Vacuum compacts away row versions with end timestamp <= watermark and
// returns how many it removed. For a table owned by a DB the pass
// serializes with commits under the DB commit lock and the watermark is
// clamped to the DB's snapshot watermark, so callers may pass the
// maximum uint64 to mean "everything provably dead". Standalone tables
// trust the caller's watermark. The BeforeVacuum fault-injection hook
// may abort the pass with an error; AfterVacuum observes the count.
func (t *Table) Vacuum(watermark uint64) (int, error) {
	return t.vacuumPass(watermark, false)
}

// vacuumPass is Vacuum; amortized makes the pass compact only when the
// reclaimable versions reach 1/amortizeShare of the stored ones.
func (t *Table) vacuumPass(watermark uint64, amortized bool) (int, error) {
	if h := t.hooks(); h != nil && h.BeforeVacuum != nil {
		if err := h.BeforeVacuum(t.name); err != nil {
			return 0, err
		}
	}
	var removed int
	if t.db != nil {
		// commitMu excludes concurrent commits (including their rollback
		// paths, which reuse row positions recorded earlier in the same
		// commit) and freezes the watermark computation.
		t.db.commitMu.Lock()
		if w := t.db.watermarkLocked(); w < watermark {
			watermark = w
		}
		removed = t.vacuum(watermark, amortized)
		t.db.commitMu.Unlock()
	} else {
		removed = t.vacuum(watermark, amortized)
	}
	if h := t.hooks(); h != nil && h.AfterVacuum != nil {
		h.AfterVacuum(t.name, removed)
	}
	return removed, nil
}

// vacuum performs the compaction; the caller holds the DB commit lock
// when the table is DB-owned.
func (t *Table) vacuum(watermark uint64, amortized bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	locked := time.Now()
	d := t.data
	total := len(d.begin)
	removed := 0
	for _, end := range d.end {
		if end <= watermark {
			removed++
		}
	}
	if amortized && removed*amortizeShare < total {
		// The table's dead versions reach the line, but a reader's lease
		// still pins too many of them.
		t.metrics.VacuumDeferred.Inc()
		return 0
	}
	if removed == 0 {
		return 0
	}

	// The main/delta split is identical across columns; preserve it so
	// merged rows stay merged (and zone-mapped) after compaction.
	mainLen := 0
	if len(d.cols) > 0 {
		mainLen = d.cols[0].main.len()
	}
	remap := make([]int, total)
	kept := 0
	for r, end := range d.end {
		if end <= watermark {
			remap[r] = -1
		} else {
			remap[r] = kept
			kept++
		}
	}
	keptMain := kept
	for _, np := range remap[mainLen:] {
		if np >= 0 {
			keptMain--
		}
	}

	nd := &tableData{
		begin: compactSlice(d.begin, remap, 0, kept),
		end:   compactSlice(d.end, remap, 0, kept),
		cols:  make([]*column, len(d.cols)),
	}
	for i, c := range d.cols {
		nd.cols[i] = &column{typ: c.typ,
			main:  c.main.compact(remap[:mainLen], 0, keptMain),
			delta: c.delta.compact(remap[mainLen:], keptMain, kept-keptMain)}
	}
	nd.uniqueIdx = make([]map[string]int, len(d.uniqueIdx))
	for ki, idx := range d.uniqueIdx {
		nidx := make(map[string]int, len(idx))
		for key, pos := range idx {
			if np := remap[pos]; np >= 0 {
				nidx[key] = np
			}
		}
		nd.uniqueIdx[ki] = nidx
	}
	if d.zoneMaps != nil {
		nd.extendZoneMaps()
	}

	// Retire the old version: snapshots holding it keep reading their
	// frozen positions; buffered writes translate through the remap.
	d.remap = remap
	d.next = nd
	t.data = nd

	// Compaction changes no visible row; the statistics are recomputed
	// if enough changed since they were, and plan caches hear of it only
	// if the numbers moved (bumpStatsEpoch is safe here: it is a plain
	// atomic).
	if t.refreshStatsIfDueLocked() {
		t.bumpStatsEpoch()
	}

	t.metrics.Vacuums.Inc()
	t.metrics.VacuumedVersions.Add(int64(removed))
	t.metrics.VacuumHold.Observe(time.Since(locked).Nanoseconds())
	return removed
}

// VacuumTable runs a vacuum pass on one table at the DB's current
// snapshot watermark.
func (db *DB) VacuumTable(name string) (int, error) {
	t, ok := db.Table(name)
	if !ok {
		return 0, fmt.Errorf("storage: table %s does not exist", name)
	}
	return t.Vacuum(endInfinity)
}

// Vacuum runs a vacuum pass over every table at the DB's current
// snapshot watermark and returns the total number of row versions
// removed. It stops at the first fault-injection error.
func (db *DB) Vacuum() (int, error) {
	total := 0
	for _, name := range db.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue // dropped concurrently
		}
		n, err := t.Vacuum(endInfinity)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// VacuumAmortized is the background form of Vacuum: it visits every
// table but compacts only those whose reclaimable versions reach
// 1/amortizeShare of their stored versions. A table whose dead versions
// (stored minus live, an O(1) read) are below the line is skipped
// without taking the commit lock; for the others the pass itself counts
// what the watermark releases, so versions a reader's lease still pins
// do not trigger a rebuild. It returns the number of versions removed
// and stops at the first fault-injection error.
func (db *DB) VacuumAmortized() (int, error) {
	total := 0
	for _, name := range db.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue // dropped concurrently
		}
		t.mu.RLock()
		stored := len(t.data.begin)
		dead := stored - int(t.liveRows)
		t.mu.RUnlock()
		if dead == 0 {
			continue
		}
		if dead*amortizeShare < stored {
			db.metrics.VacuumDeferred.Inc()
			continue
		}
		n, err := t.vacuumPass(endInfinity, true)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
