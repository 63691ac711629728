package storage

import "vdm/internal/metrics"

// Metrics aggregates the storage-layer counters for one DB: MVCC
// activity, delta merges, and zone-map pruning effectiveness. All
// fields are atomic and safe for concurrent recording; every table
// created through DB.CreateTable shares the DB's instance.
type Metrics struct {
	// Commits counts committed transactions (empty commits excluded).
	Commits metrics.Counter
	// RowsInserted / RowsDeleted count committed row-version writes.
	RowsInserted metrics.Counter
	RowsDeleted  metrics.Counter
	// Snapshots counts MVCC snapshot acquisitions (one per table scan
	// or read-view request).
	Snapshots metrics.Counter
	// DeltaMerges counts delta-to-main merges across all tables.
	DeltaMerges metrics.Counter
	// AutoMerges counts delta merges initiated by the background
	// maintenance loop (a subset of DeltaMerges).
	AutoMerges metrics.Counter
	// Vacuums counts Table.Vacuum compaction passes that removed at
	// least one version; VacuumedVersions counts the dead row versions
	// they reclaimed.
	Vacuums          metrics.Counter
	VacuumedVersions metrics.Counter
	// VacuumDeferred counts background vacuum passes over a table that
	// found reclaimable-looking versions but fewer than the amortization
	// line (1/amortizeShare of the stored versions) and left them.
	VacuumDeferred metrics.Counter
	// MergeHold and VacuumHold record, per delta merge and per
	// compaction, how long the pass held the table write lock
	// (nanoseconds) — the time commits and scans of that table waited.
	MergeHold  metrics.Histogram
	VacuumHold metrics.Histogram
	// ZoneMapSkips counts whole blocks (zoneBlockSize rows each) skipped
	// by zone-map pruning during scans.
	ZoneMapSkips metrics.Counter
	// StatsRefreshes counts per-table column-statistics rebuilds
	// (explicit RefreshStats plus the ones piggybacked on delta merges
	// and vacuums).
	StatsRefreshes metrics.Counter
}

// RegisterWith registers every storage counter and histogram in a
// metrics registry under the "storage." prefix.
func (m *Metrics) RegisterWith(r *metrics.Registry) {
	r.RegisterCounter("storage.commits", &m.Commits)
	r.RegisterCounter("storage.rows_inserted", &m.RowsInserted)
	r.RegisterCounter("storage.rows_deleted", &m.RowsDeleted)
	r.RegisterCounter("storage.snapshots", &m.Snapshots)
	r.RegisterCounter("storage.delta_merges", &m.DeltaMerges)
	r.RegisterCounter("storage.auto_merges", &m.AutoMerges)
	r.RegisterCounter("storage.vacuums", &m.Vacuums)
	r.RegisterCounter("storage.vacuumed_versions", &m.VacuumedVersions)
	r.RegisterCounter("storage.vacuum_deferred", &m.VacuumDeferred)
	r.RegisterHistogram("storage.merge_hold_ns", &m.MergeHold)
	r.RegisterHistogram("storage.vacuum_hold_ns", &m.VacuumHold)
	r.RegisterCounter("storage.zonemap_block_skips", &m.ZoneMapSkips)
	r.RegisterCounter("storage.stats_refreshes", &m.StatsRefreshes)
}

// Metrics returns the DB's storage counters.
func (db *DB) Metrics() *Metrics { return db.metrics }
