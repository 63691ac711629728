package storage

import (
	"fmt"
	"sync"
	"time"

	"vdm/internal/types"
	"vdm/internal/wal"
)

// Constraint kinds attached to a table.

// KeyConstraint declares that a set of columns is unique among live rows.
// Primary reports whether it is the table's primary key (implies NOT NULL
// on the key columns).
type KeyConstraint struct {
	Name    string
	Columns []int // ordinals into the table schema
	Primary bool
}

// ForeignKey records referential metadata: Columns of this table reference
// the primary key of RefTable. As in the paper's applications (§4.5), the
// engine records foreign keys for the optimizer but does not enforce them;
// referential integrity is an application-side concern.
type ForeignKey struct {
	Name     string
	Columns  []int
	RefTable string
}

// tableData is one immutable-once-retired version of a table's row-version
// store. The current version (Table.data) is mutated in place under the
// table mutex; when Vacuum compacts the table it freezes the current
// version, records the old→new position remap on it, and installs a
// successor. Snapshots capture the version live at their creation, so the
// row positions they hand out stay valid for the snapshot's lifetime even
// while maintenance reshuffles the current store underneath them.
type tableData struct {
	cols  []*column
	begin []uint64 // commit TS at which each row version became visible
	end   []uint64 // commit TS at which it was deleted (endInfinity = live)
	// zoneMaps holds per-column block summaries over the main fragment
	// (nil until the first delta merge).
	zoneMaps []*zoneMap
	// uniqueIdx maps each key constraint to an index over live rows:
	// composite key string -> row position.
	uniqueIdx []map[string]int

	// Retirement fields, set under the table mutex when Vacuum installs a
	// successor. remap maps every row position of this version to its
	// position in next (-1 for vacuumed versions); nil while this version
	// is current.
	remap []int
	next  *tableData
}

// Table is an MVCC columnar table. Row versions carry [begin,end)
// commit-timestamp visibility; dead versions are physically removed only
// by Vacuum once the snapshot watermark proves no reader can see them.
type Table struct {
	mu sync.RWMutex

	name    string
	schema  types.Schema
	keys    []KeyConstraint
	fks     []ForeignKey
	data    *tableData
	version uint64 // commit TS of the last committed change

	// liveRows is the exact number of currently-visible rows, maintained
	// inline by insert/delete/rollback; colStats holds the per-column
	// statistics from the last refreshStatsLocked (nil before the first
	// refresh), statsRows the row count they were computed over, and
	// statsChurn the inserts and deletes applied since. See stats.go.
	liveRows   int64
	colStats   []types.ColStats
	statsRows  int64
	statsChurn int64

	// metrics receives storage counters; tables created through
	// DB.CreateTable share the DB's instance, standalone tables get
	// their own.
	metrics *Metrics

	// db points at the owning database for tables created through
	// DB.CreateTable (nil for standalone tables); Vacuum and the fault
	// injection hooks coordinate through it.
	db *DB
}

const endInfinity = ^uint64(0)

// amortizeShare sets when maintenance work that costs O(table) is due:
// once the change it would absorb reaches 1/amortizeShare of the table.
// Background version GC compacts a table when that share of its stored
// versions is reclaimable, and merge and compaction recompute column
// statistics when that many rows were inserted or deleted since the
// last refresh. As with slice growth, each rebuild is then paid for by
// the changes that preceded it, and what is put off stays bounded: a
// scan reads at most 1/amortizeShare (12.5 %) more versions than it has
// to.
const amortizeShare = 8

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema types.Schema) *Table {
	t := &Table{name: name, schema: schema, metrics: &Metrics{}, data: &tableData{}}
	for _, c := range schema {
		t.data.cols = append(t.data.cols, newColumn(c.Type))
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// Keys returns the table's key (uniqueness) constraints.
func (t *Table) Keys() []KeyConstraint {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]KeyConstraint(nil), t.keys...)
}

// Version returns the commit timestamp of the table's last committed
// change (0 for a never-written table). Cached views use it to detect
// staleness.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// ForeignKeys returns the table's foreign-key metadata.
func (t *Table) ForeignKeys() []ForeignKey {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]ForeignKey(nil), t.fks...)
}

// hooks returns the owning DB's fault-injection hooks (nil for standalone
// tables or when none are installed).
func (t *Table) hooks() *TestHooks {
	if t.db == nil {
		return nil
	}
	return t.db.hooks.Load()
}

// AddKey registers a uniqueness constraint. It fails if existing live
// rows violate it. For DB-owned tables it serializes with commits (the
// WAL record must land on the correct side of any segment rotation).
func (t *Table) AddKey(k KeyConstraint) error {
	if t.db != nil {
		t.db.commitMu.Lock()
		defer t.db.commitMu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range k.Columns {
		if c < 0 || c >= len(t.schema) {
			return fmt.Errorf("storage: key column ordinal %d out of range", c)
		}
	}
	d := t.data
	idx := make(map[string]int)
	for r := range d.begin {
		if d.end[r] != endInfinity {
			continue
		}
		key, hasNull := d.keyString(r, k.Columns)
		if hasNull && !k.Primary {
			continue // SQL unique constraints admit multiple NULL keys
		}
		if hasNull && k.Primary {
			return fmt.Errorf("storage: primary key %s has NULL values", k.Name)
		}
		if _, dup := idx[key]; dup {
			return fmt.Errorf("storage: duplicate key for constraint %s", k.Name)
		}
		idx[key] = r
	}
	if t.db != nil {
		if err := t.db.logDDL(&wal.AddKeyRecord{Table: t.name,
			Key: wal.KeyDef{Name: k.Name, Columns: k.Columns, Primary: k.Primary}}); err != nil {
			return err
		}
	}
	t.keys = append(t.keys, k)
	d.uniqueIdx = append(d.uniqueIdx, idx)
	return nil
}

// AddForeignKey registers (but does not enforce) a foreign key. The
// only error source is the WAL (a durable DB logs the DDL).
func (t *Table) AddForeignKey(fk ForeignKey) error {
	if t.db != nil {
		t.db.commitMu.Lock()
		defer t.db.commitMu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.db != nil {
		if err := t.db.logDDL(&wal.AddForeignKeyRecord{Table: t.name,
			FK: wal.FKDef{Name: fk.Name, Columns: fk.Columns, RefTable: fk.RefTable}}); err != nil {
			return err
		}
	}
	t.fks = append(t.fks, fk)
	return nil
}

func (d *tableData) keyString(row int, cols []int) (key string, hasNull bool) {
	b, hasNull := d.appendKey(nil, row, cols)
	return string(b), hasNull
}

// appendKey appends the composite key of a stored row to b. The commit
// path passes a stack buffer and looks the bytes up directly, so finding
// or deleting an index entry allocates nothing.
func (d *tableData) appendKey(b []byte, row int, cols []int) (key []byte, hasNull bool) {
	// Typed binary key encoding (types.Value.AppendKey): each component
	// is self-delimiting, so composites need no separator and values
	// containing NUL bytes cannot alias — the legacy Key()+"\x00" scheme
	// collapsed ('a\x00','c') and ('a','\x00c') into one index entry.
	for _, c := range cols {
		v := d.cols[c].get(row)
		if v.IsNull() {
			hasNull = true
		}
		b = v.AppendKey(b)
	}
	return b, hasNull
}

// rowCount returns the number of stored row versions.
func (t *Table) rowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.data.begin)
}

// currentData returns the live data version.
func (t *Table) currentData() *tableData {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.data
}

// valueCompatible reports whether a value may be stored in a column of
// the given type (mirrors the fragments' acceptance rules).
func valueCompatible(v types.Value, t types.Type) bool {
	if v.IsNull() {
		return true
	}
	if v.Typ == t {
		return true
	}
	switch t {
	case types.TFloat:
		return v.Typ == types.TInt
	case types.TDecimal:
		return v.Typ == types.TInt
	}
	return false
}

// rowKeyString builds the composite key of an unstored row, in the
// same typed encoding as keyString.
func rowKeyString(row types.Row, cols []int) (key string, hasNull bool) {
	b, hasNull := appendRowKey(nil, row, cols)
	return string(b), hasNull
}

// appendRowKey is rowKeyString into a caller-supplied buffer.
func appendRowKey(b []byte, row types.Row, cols []int) (key []byte, hasNull bool) {
	for _, c := range cols {
		v := row[c]
		if v.IsNull() {
			hasNull = true
		}
		b = v.AppendKey(b)
	}
	return b, hasNull
}

// insertLocked appends a row version visible from ts. Caller holds mu.
// All constraint and type checks run BEFORE any mutation so a failed
// insert leaves no trace (a partially-appended row would become visible
// once a later commit reuses the timestamp).
func (t *Table) insertLocked(row types.Row, ts uint64) (int, error) {
	if len(row) != len(t.schema) {
		return 0, fmt.Errorf("storage: %s: row has %d values, want %d", t.name, len(row), len(t.schema))
	}
	for i, v := range row {
		if v.IsNull() && t.schema[i].NotNull {
			return 0, fmt.Errorf("storage: %s.%s: NULL violates NOT NULL", t.name, t.schema[i].Name)
		}
		if !valueCompatible(v, t.schema[i].Type) {
			return 0, fmt.Errorf("storage: %s.%s: type mismatch: %s into %s column",
				t.name, t.schema[i].Name, v.Typ, t.schema[i].Type)
		}
	}
	d := t.data
	type pendingIdx struct {
		ki  int
		key string
	}
	var pendBuf [2]pendingIdx
	pend := pendBuf[:0]
	var keyBuf [64]byte
	for ki, k := range t.keys {
		kb, hasNull := appendRowKey(keyBuf[:0], row, k.Columns)
		if hasNull {
			if k.Primary {
				return 0, fmt.Errorf("storage: %s: NULL in primary key", t.name)
			}
			continue
		}
		if old, dup := d.uniqueIdx[ki][string(kb)]; dup && d.end[old] == endInfinity {
			return 0, fmt.Errorf("storage: %s: unique constraint %s violated", t.name, k.Name)
		}
		pend = append(pend, pendingIdx{ki: ki, key: string(kb)})
	}
	// All checks passed: apply.
	r := len(d.begin)
	for i, v := range row {
		if err := d.cols[i].appendDelta(v); err != nil {
			// Unreachable after valueCompatible, but fail loudly.
			panic(fmt.Sprintf("storage: %s.%s: %v", t.name, t.schema[i].Name, err))
		}
	}
	d.begin = append(d.begin, ts)
	d.end = append(d.end, endInfinity)
	for _, p := range pend {
		d.uniqueIdx[p.ki][p.key] = r
	}
	t.liveRows++
	t.statsChurn++
	return r, nil
}

// deleteLocked marks row version r deleted as of ts. Caller holds mu.
func (t *Table) deleteLocked(r int, ts uint64) {
	d := t.data
	d.end[r] = ts
	t.liveRows--
	t.statsChurn++
	var keyBuf [64]byte
	for ki, k := range t.keys {
		kb, hasNull := d.appendKey(keyBuf[:0], r, k.Columns)
		if hasNull {
			continue
		}
		if cur, ok := d.uniqueIdx[ki][string(kb)]; ok && cur == r {
			delete(d.uniqueIdx[ki], string(kb))
		}
	}
}

// MergeDelta folds all delta fragments into the main fragments,
// mirroring HANA's delta merge, and extends the zone maps over the rows
// the main fragments gained: the pass costs O(delta), whatever the size
// of the table (plus, on the first merge after a compaction, the string
// dictionaries' reverse indexes that the compaction left to it). Column
// statistics are recomputed only when due (see refreshStatsIfDueLocked).
// Visibility metadata and row positions are unaffected, so merges
// coexist with concurrent scans. A table with an empty delta and current
// zone maps is left alone: no write lock, no delta_merges tick. The BeforeMerge/AfterMerge fault-injection hooks
// run outside the table lock; a BeforeMerge error aborts the merge
// untouched.
func (t *Table) MergeDelta() error {
	if h := t.hooks(); h != nil && h.BeforeMerge != nil {
		if err := h.BeforeMerge(t.name); err != nil {
			return err
		}
	}
	if t.mergeDue() {
		t.mu.Lock()
		locked := time.Now()
		t.metrics.DeltaMerges.Inc()
		for _, c := range t.data.cols {
			c.mergeDelta()
		}
		t.data.extendZoneMaps()
		moved := t.refreshStatsIfDueLocked()
		t.metrics.MergeHold.Observe(time.Since(locked).Nanoseconds())
		t.mu.Unlock()
		if moved {
			t.bumpStatsEpoch()
		}
	}
	if h := t.hooks(); h != nil && h.AfterMerge != nil {
		h.AfterMerge(t.name)
	}
	return nil
}

// mergeDue reports whether MergeDelta has anything to do: delta rows to
// move, or zone maps to build (every merge leaves them current).
func (t *Table) mergeDue() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := t.data
	return len(d.cols) > 0 && (d.cols[0].delta.len() > 0 || d.zoneMaps == nil)
}

// DeltaRows returns the number of row positions currently held in delta
// fragments (identical across columns).
func (t *Table) DeltaRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.data.cols) == 0 {
		return 0
	}
	return t.data.cols[0].delta.len()
}

// Snapshot provides a read view of the table as of commit timestamp ts.
// It captures the data version live at its creation: the row positions
// it exposes remain valid against that version for the snapshot's whole
// lifetime, even if Vacuum compacts the table concurrently.
type Snapshot struct {
	t    *Table
	ts   uint64
	data *tableData
}

// SnapshotAt returns a snapshot reading row versions with
// begin <= ts < end.
func (t *Table) SnapshotAt(ts uint64) *Snapshot {
	t.metrics.Snapshots.Inc()
	return &Snapshot{t: t, ts: ts, data: t.currentData()}
}

// TS returns the snapshot's read timestamp.
func (s *Snapshot) TS() uint64 { return s.ts }

// Pin registers the snapshot's timestamp with the owning DB's watermark
// so version GC keeps every version visible at it, and returns the
// release function. Long-lived readers that drop and re-acquire table
// locks across their lifetime (batch scans, which lock once per batch)
// pin themselves so new snapshots taken at their timestamp stay valid.
// A no-op for standalone tables.
func (s *Snapshot) Pin() (release func()) {
	if s.t.db == nil {
		return func() {}
	}
	return s.t.db.acquireReadAt(s.ts)
}

// ForEach invokes fn for every visible row position, stopping early if fn
// returns false. The visible positions are collected under the table
// lock first; fn itself runs with no locks held, so it may freely call
// other Snapshot accessors (Row, Value, LookupUnique, ...). Holding the
// lock across an arbitrary callback would deadlock the moment the
// callback re-enters it with a writer queued in between: Go's RWMutex
// blocks a nested RLock behind a pending Lock.
func (s *Snapshot) ForEach(fn func(row int) bool) {
	for _, r := range s.Rows() {
		if !fn(r) {
			return
		}
	}
}

// Rows returns the visible row positions, collected under a single lock
// acquisition.
func (s *Snapshot) Rows() []int {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	d := s.data
	var out []int
	for r := range d.begin {
		if d.begin[r] <= s.ts && s.ts < d.end[r] {
			out = append(out, r)
		}
	}
	return out
}

// Count returns the number of visible rows.
func (s *Snapshot) Count() int {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	d := s.data
	n := 0
	for r := range d.begin {
		if d.begin[r] <= s.ts && s.ts < d.end[r] {
			n++
		}
	}
	return n
}

// MaterializeVisible materializes every visible row in position order
// under a single lock acquisition. Checkpoint capture uses it instead
// of ForEach+Row so a full-table image costs one lock round trip
// rather than one per row.
func (s *Snapshot) MaterializeVisible() []types.Row {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	d := s.data
	var out []types.Row
	for r := range d.begin {
		if d.begin[r] <= s.ts && s.ts < d.end[r] {
			row := make(types.Row, len(d.cols))
			for i, c := range d.cols {
				row[i] = c.get(r)
			}
			out = append(out, row)
		}
	}
	return out
}

// Value reads column col of row position row.
func (s *Snapshot) Value(row, col int) types.Value {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	return s.data.cols[col].get(row)
}

// ValuesInto fetches the given column ordinals of one row under a single
// lock acquisition. out must have len(ords).
func (s *Snapshot) ValuesInto(row int, ords []int, out types.Row) {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	for i, ord := range ords {
		out[i] = s.data.cols[ord].get(row)
	}
}

// NumRowVersions returns the total number of stored row versions,
// visible or not. It bounds the row-position domain that batch scans
// walk in fixed-size ranges; each range is then filtered for visibility
// with CollectVisible.
func (s *Snapshot) NumRowVersions() int {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	return len(s.data.begin)
}

// CollectVisible appends to dst the visible row positions in [lo, hi),
// skipping zone-mapped blocks that cannot satisfy the range constraints
// (which may be nil), and returns where the walk stopped: hi, or past it
// when a skipped block ran beyond hi. A scan resumes there, so each block
// is examined, and each skip counted, once. The whole range is processed
// under a single lock acquisition, so per-row locking cost is amortized
// across the batch.
func (s *Snapshot) CollectVisible(lo, hi int, ranges []ColRange, dst []int) ([]int, int) {
	if h := s.t.hooks(); h != nil && h.BeforeScanBatch != nil {
		h.BeforeScanBatch(s.t.Name())
	}
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	d := s.data
	r, end := lo, min(hi, len(d.begin))
	for r < end {
		if next := d.zoneSkip(r, ranges, s.t.metrics); next > r {
			r = next
			continue
		}
		// r's block passed every range constraint; that verdict holds for
		// the rest of the block (zone blocks are aligned across columns),
		// so scan to the block boundary without re-evaluating zones.
		for run := d.zoneRunEnd(r, end, ranges); r < run; r++ {
			if d.begin[r] <= s.ts && s.ts < d.end[r] {
				dst = append(dst, r)
			}
		}
	}
	return dst, max(r, hi)
}

// Row materializes a full row.
func (s *Snapshot) Row(row int) types.Row {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	out := make(types.Row, len(s.data.cols))
	for i, c := range s.data.cols {
		out[i] = c.get(row)
	}
	return out
}
