package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vdm/internal/types"
	"vdm/internal/wal"
)

// DB is the in-memory database: a set of tables plus the transaction
// timestamp authority. All DDL and DML go through it.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	commitMu sync.Mutex // serializes commits (and excludes Vacuum)
	clock    uint64     // last issued commit timestamp

	// leaseMu guards leases, the refcounted set of registered reader
	// timestamps behind the snapshot watermark. Lock order when both are
	// held: commitMu before leaseMu.
	leaseMu sync.Mutex
	leases  map[uint64]int

	// schemaEpoch advances on every CreateTable/DropTable so callers that
	// cache compiled artifacts against the schema (the engine's plan
	// cache) can detect DDL that bypassed them.
	schemaEpoch atomic.Uint64

	// statsEpoch advances when data moves enough to plausibly change
	// cost-based plan choices: a commit that carries a table's visible
	// row count across an order-of-magnitude boundary, or a statistics
	// refresh (explicit, or due during a merge or vacuum) whose numbers
	// moved materially. Plan caches compare it at lookup time so a plan
	// cached against an empty build side does not keep its build-side
	// choice forever after a bulk load inverts the input sizes.
	statsEpoch atomic.Uint64

	// hooks holds the fault-injection test hooks, nil in production.
	hooks atomic.Pointer[TestHooks]

	// wal is the durability layer, nil for a purely in-memory DB. It is
	// attached once by OpenDB (after recovery finished, so replay never
	// re-logs) and never replaced; see durability.go.
	wal *walState

	metrics *Metrics // shared by all tables of this DB
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables:  make(map[string]*Table),
		leases:  make(map[uint64]int),
		metrics: &Metrics{},
	}
}

// CreateTable creates a table; names are case-insensitive. DDL takes
// the commit lock first: WAL-logged schema records must serialize with
// commit records so each lands on the correct side of a checkpoint's
// segment rotation.
func (db *DB) CreateTable(name string, schema types.Schema) (*Table, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	// Log before mutating: a WAL failure must leave the DDL unapplied.
	if err := db.logDDL(&wal.CreateTableRecord{Name: name, Schema: schema}); err != nil {
		return nil, err
	}
	t := NewTable(name, schema)
	t.metrics = db.metrics
	t.db = db
	db.tables[key] = t
	db.schemaEpoch.Add(1)
	return t, nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("storage: table %s does not exist", name)
	}
	if err := db.logDDL(&wal.DropTableRecord{Name: name}); err != nil {
		return err
	}
	delete(db.tables, key)
	db.schemaEpoch.Add(1)
	return nil
}

// SchemaEpoch returns a counter that advances on every CreateTable and
// DropTable. Plan caches compare it against the epoch they were filled
// under so direct storage-level DDL invalidates them too.
func (db *DB) SchemaEpoch() uint64 { return db.schemaEpoch.Load() }

// StatsEpoch returns the coarse data-movement counter: it advances when
// a commit moves a table's visible row count across an order-of-magnitude
// boundary, and when a statistics refresh — RefreshStats, or the one a
// delta merge or vacuum runs once a table's churn makes it due —
// installs numbers that differ materially from the ones they replace (a
// column's distinct count or the row count in another order-of-magnitude
// bucket, a column gaining or losing its min/max). Merge and vacuum by
// themselves change no visible data and leave it alone. Plan caches
// treat a moved stats epoch like DDL and replan, so cost-based choices
// (hash-join build side, join order) track the data.
func (db *DB) StatsEpoch() uint64 { return db.statsEpoch.Load() }

// Table looks up a table by case-insensitive name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

// CurrentTS returns the latest commit timestamp; snapshots taken at this
// timestamp see all committed data.
func (db *DB) CurrentTS() uint64 {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	return db.clock
}

// --- snapshot watermark --------------------------------------------------

// ReadLease pins a read timestamp in the DB's watermark computation:
// while held, version GC keeps every row version visible at the leased
// timestamp, and new snapshots taken at it stay correct. Release is
// idempotent.
type ReadLease struct {
	db       *DB
	ts       uint64
	released atomic.Bool
}

// TS returns the leased read timestamp.
func (l *ReadLease) TS() uint64 { return l.ts }

// Release drops the lease, letting the watermark advance past it.
func (l *ReadLease) Release() {
	if l == nil || l.released.Swap(true) {
		return
	}
	db := l.db
	db.leaseMu.Lock()
	defer db.leaseMu.Unlock()
	if n := db.leases[l.ts]; n <= 1 {
		delete(db.leases, l.ts)
	} else {
		db.leases[l.ts] = n - 1
	}
}

// AcquireRead atomically reads the current commit timestamp and
// registers it as a live reader, so the watermark cannot advance past
// it before the lease is released. Queries and transactions hold a
// lease for their whole lifetime; that is what lets Vacuum prove a dead
// version is invisible to every present and future reader.
func (db *DB) AcquireRead() *ReadLease {
	db.commitMu.Lock()
	ts := db.clock
	// Register before releasing commitMu: a vacuum pass (which computes
	// the watermark under commitMu) must either run before the clock
	// read or see this lease.
	db.leaseMu.Lock()
	db.leases[ts]++
	db.leaseMu.Unlock()
	db.commitMu.Unlock()
	return &ReadLease{db: db, ts: ts}
}

// acquireReadAt registers an arbitrary (typically historical) timestamp
// and returns the release function. Callers must already hold a
// guarantee that versions at ts have not been vacuumed (e.g. a pinned
// snapshot's data version).
func (db *DB) acquireReadAt(ts uint64) func() {
	return db.acquireReadAtLease(ts).Release
}

func (db *DB) acquireReadAtLease(ts uint64) *ReadLease {
	db.leaseMu.Lock()
	db.leases[ts]++
	db.leaseMu.Unlock()
	return &ReadLease{db: db, ts: ts}
}

// Watermark returns the oldest timestamp any present or future reader
// can observe: the minimum over registered read leases and the current
// commit clock. Row versions whose end timestamp is <= the watermark
// are invisible to everyone and eligible for Vacuum.
func (db *DB) Watermark() uint64 {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	return db.watermarkLocked()
}

// watermarkLocked computes the watermark; caller holds commitMu.
func (db *DB) watermarkLocked() uint64 {
	w := db.clock
	db.leaseMu.Lock()
	for ts := range db.leases {
		if ts < w {
			w = ts
		}
	}
	db.leaseMu.Unlock()
	return w
}

// WatermarkLag returns how far the watermark trails the commit clock
// (0 when no reader pins an older timestamp), in commit timestamps.
func (db *DB) WatermarkLag() uint64 {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	return db.clock - db.watermarkLocked()
}

// --- transactions --------------------------------------------------------

// writeOp is a buffered transactional write.
type writeOp struct {
	table *Table
	// insert
	row types.Row
	// delete: rowPos >= 0 identifies the row version to delete; data is
	// the table-data version the position refers to, so the commit can
	// remap it across any Vacuum compactions that ran in between.
	rowPos int
	data   *tableData
	kind   opKind
}

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
)

// Txn is a transaction. Reads see the snapshot taken at Begin; writes are
// buffered and applied atomically at Commit under the global commit lock
// (first-committer-wins is not implemented — conflicting writes surface
// as constraint errors at commit time). The transaction holds a read
// lease from Begin until Commit or Rollback, pinning the watermark at
// its snapshot timestamp.
type Txn struct {
	db     *DB
	lease  *ReadLease
	readTS uint64
	writes []writeOp
	done   bool
	// writeBuf backs writes until a fifth write, so a short transaction
	// is one allocation.
	writeBuf [4]writeOp
}

// Begin starts a transaction with a consistent snapshot.
func (db *DB) Begin() *Txn {
	lease := db.AcquireRead()
	tx := &Txn{db: db, lease: lease, readTS: lease.TS()}
	tx.writes = tx.writeBuf[:0]
	return tx
}

// ReadTS returns the transaction's snapshot timestamp.
func (tx *Txn) ReadTS() uint64 { return tx.readTS }

// Snapshot returns the transaction's read view of a table.
func (tx *Txn) Snapshot(t *Table) *Snapshot { return t.SnapshotAt(tx.readTS) }

// Insert buffers an insert.
func (tx *Txn) Insert(t *Table, row types.Row) error {
	if tx.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	if len(row) != len(t.schema) {
		return fmt.Errorf("storage: %s: row has %d values, want %d", t.name, len(row), len(t.schema))
	}
	tx.writes = append(tx.writes, writeOp{table: t, row: row.Clone(), kind: opInsert})
	return nil
}

// Delete buffers deletion of a row version identified by a position in
// the table's current data version. Prefer DeleteAt when the position
// came from a Snapshot: it stays correct even if Vacuum compacts the
// table between the read and the commit.
func (tx *Txn) Delete(t *Table, rowPos int) error {
	return tx.deleteOp(t, t.currentData(), rowPos)
}

// DeleteAt buffers deletion of a row version located at rowPos in the
// given snapshot's view of its table.
func (tx *Txn) DeleteAt(s *Snapshot, rowPos int) error {
	return tx.deleteOp(s.t, s.data, rowPos)
}

func (tx *Txn) deleteOp(t *Table, data *tableData, rowPos int) error {
	if tx.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	tx.writes = append(tx.writes, writeOp{table: t, rowPos: rowPos, data: data, kind: opDelete})
	return nil
}

// Update buffers an update as delete+insert (the MVCC versioning model).
func (tx *Txn) Update(t *Table, rowPos int, newRow types.Row) error {
	if err := tx.Delete(t, rowPos); err != nil {
		return err
	}
	return tx.Insert(t, newRow)
}

// UpdateAt buffers an update of the row at rowPos in the snapshot's view.
func (tx *Txn) UpdateAt(s *Snapshot, rowPos int, newRow types.Row) error {
	if err := tx.DeleteAt(s, rowPos); err != nil {
		return err
	}
	return tx.Insert(s.t, newRow)
}

// remapPos translates a row position recorded against the data version
// `from` into the table's current data version by composing the remaps
// of every Vacuum compaction in between. ok=false means the version was
// vacuumed (it was already dead) or the position is unknown.
func remapPos(from, cur *tableData, pos int) (int, bool) {
	for d := from; d != cur; d = d.next {
		if d.remap == nil || pos < 0 || pos >= len(d.remap) {
			return -1, false
		}
		pos = d.remap[pos]
		if pos < 0 {
			return -1, false
		}
	}
	return pos, true
}

// Commit applies the buffered writes at a fresh commit timestamp. On
// constraint violation every already-applied write of this transaction is
// rolled back and the error returned.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	tx.done = true
	defer tx.lease.Release()
	if len(tx.writes) == 0 {
		return nil
	}
	db := tx.db
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	ts := db.clock + 1

	if h := db.hooks.Load(); h != nil && h.BeforeCommitApply != nil {
		if err := h.BeforeCommitApply(ts); err != nil {
			return err
		}
	}

	// Group writes per table so each table is locked once. A
	// transaction touches a handful of tables, so they are listed in
	// first-write order and each one's writes are picked out of tx.writes
	// when its turn comes: two short scans cost less than a map of
	// per-table copies, here where the commit lock is held.
	type applied struct {
		table    *Table
		inserted []int
		deleted  []int
		// beforeBucket/afterBucket are the table's order-of-magnitude
		// row-count buckets around this commit; a crossing bumps the
		// stats epoch below.
		beforeBucket, afterBucket int
	}
	var orderBuf [4]*Table
	order := orderBuf[:0]
	for i := range tx.writes {
		if t := tx.writes[i].table; !slices.Contains(order, t) {
			order = append(order, t)
		}
	}
	done := make([]applied, 0, len(order))
	rollback := func() {
		// Vacuum requires commitMu, so the positions recorded during this
		// commit attempt are still valid against the current data.
		for _, a := range done {
			a.table.mu.Lock()
			d := a.table.data
			for _, r := range a.inserted {
				a.table.deleteLocked(r, 0)
				d.begin[r] = endInfinity // never visible
			}
			for _, r := range a.deleted {
				d.end[r] = endInfinity
				a.table.liveRows++ // resurrected: deleteLocked decremented
				for ki, k := range a.table.keys {
					key, hasNull := d.keyString(r, k.Columns)
					if !hasNull {
						d.uniqueIdx[ki][key] = r
					}
				}
			}
			a.table.mu.Unlock()
		}
	}

	// With a WAL attached, the apply loop doubles as record assembly:
	// inserts log the buffered row, deletes capture the doomed row's
	// values under the table lock (deletes are logged by value — see
	// wal.OpDelete).
	logging := db.wal != nil
	var walTables []wal.TableOps
	if logging {
		walTables = make([]wal.TableOps, 0, len(order))
	}
	for _, t := range order {
		a := applied{table: t}
		var walOps []wal.RowOp
		if logging {
			n := 0
			for i := range tx.writes {
				if tx.writes[i].table == t {
					n++
				}
			}
			walOps = make([]wal.RowOp, 0, n)
		}
		t.mu.Lock()
		a.beforeBucket = rowBucket(t.liveRows)
		var err error
		for i := range tx.writes {
			w := &tx.writes[i]
			if w.table != t {
				continue
			}
			switch w.kind {
			case opInsert:
				var r int
				r, err = t.insertLocked(w.row, ts)
				if err == nil {
					a.inserted = append(a.inserted, r)
					if logging {
						walOps = append(walOps, wal.RowOp{Kind: wal.OpInsert, Row: w.row})
					}
				}
			case opDelete:
				d := t.data
				pos, ok := remapPos(w.data, d, w.rowPos)
				if !ok || pos >= len(d.end) || d.end[pos] != endInfinity {
					err = fmt.Errorf("storage: %s: row %d not live", t.name, w.rowPos)
				} else {
					if logging {
						row := make([]types.Value, len(d.cols))
						for i, c := range d.cols {
							row[i] = c.get(pos)
						}
						walOps = append(walOps, wal.RowOp{Kind: wal.OpDelete, Row: row})
					}
					t.deleteLocked(pos, ts)
					a.deleted = append(a.deleted, pos)
				}
			}
			if err != nil {
				break
			}
		}
		a.afterBucket = rowBucket(t.liveRows)
		t.mu.Unlock()
		done = append(done, a)
		if err != nil {
			rollback()
			return err
		}
		if logging {
			walTables = append(walTables, wal.TableOps{Table: t.name, Ops: walOps})
		}
	}
	// Write-ahead point: the batch is logged (and, under SyncAlways,
	// fsynced) before any of it becomes visible. On failure the applied
	// writes roll back and the writer guarantees the record is durably
	// absent, so a rejected commit can never be replayed.
	if logging {
		if err := db.walCommit(ts, walTables); err != nil {
			rollback()
			return err
		}
	}
	for _, t := range order {
		t.version.Store(ts)
	}
	db.clock = ts
	for _, a := range done {
		if a.beforeBucket != a.afterBucket {
			db.statsEpoch.Add(1)
			break
		}
	}
	if m := db.metrics; m != nil {
		m.Commits.Inc()
		for _, a := range done {
			m.RowsInserted.Add(int64(len(a.inserted)))
			m.RowsDeleted.Add(int64(len(a.deleted)))
		}
	}
	if h := db.hooks.Load(); h != nil && h.AfterCommit != nil {
		h.AfterCommit(ts)
	}
	return nil
}

// Rollback discards the transaction's buffered writes.
func (tx *Txn) Rollback() {
	tx.done = true
	tx.writes = nil
	tx.lease.Release()
}

// InsertRows is a convenience that inserts rows in a single transaction.
func (db *DB) InsertRows(tableName string, rows []types.Row) error {
	t, ok := db.Table(tableName)
	if !ok {
		return fmt.Errorf("storage: table %s does not exist", tableName)
	}
	tx := db.Begin()
	for _, r := range rows {
		if err := tx.Insert(t, r); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}
