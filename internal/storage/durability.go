package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vdm/internal/types"
	"vdm/internal/wal"
)

// walState is the DB's handle on its write-ahead log. It is attached
// only AFTER OpenDB finished checkpoint restore and log replay, so
// recovery-time CreateTable/AddKey/commit application never re-logs
// itself; once attached it is never replaced.
type walState struct {
	dir string
	w   *wal.Writer
	m   *wal.Metrics
	cfg wal.Config

	// ckptMu serializes whole checkpoint passes (the maintenance loop
	// and explicit DB.Checkpoint calls may race).
	ckptMu sync.Mutex
	// checkpointTS is the commit timestamp of the last durable
	// checkpoint (0 before the first).
	checkpointTS atomic.Uint64
	// commitsSinceCkpt drives the engine's CheckpointEvery trigger.
	commitsSinceCkpt atomic.Int64
}

// RecoveryInfo summarizes what OpenDB restored.
type RecoveryInfo struct {
	// CheckpointTS is the commit timestamp of the restored checkpoint
	// (0 when the directory held none).
	CheckpointTS uint64
	// LastTS is the commit clock after recovery: the last durable
	// commit timestamp. The clock advances only on commits, so replay
	// restores exactly the pre-crash timestamp history.
	LastTS uint64
	// Records counts WAL records replayed over the checkpoint.
	Records int
	// Segments counts the log segments scanned.
	Segments int
	// TornTail reports that the final record was torn (incomplete or
	// checksum-failing) and truncated away rather than partially
	// replayed.
	TornTail bool
	// Duration is the wall time of checkpoint restore + replay.
	Duration time.Duration
}

// OpenDB opens (or creates) a durable database rooted at dir: it
// restores the checkpoint if one exists, replays the WAL tail on top of
// it, truncates a torn final record, restores the commit clock to the
// last durable timestamp, and arms the log for new appends.
func OpenDB(dir string, cfg wal.Config) (*DB, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", wal.ErrWALFailed, err)
	}
	start := time.Now()
	db := NewDB()
	m := &wal.Metrics{}
	info := &RecoveryInfo{}

	ck, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	if ck != nil {
		if err := db.restoreCheckpoint(ck); err != nil {
			return nil, nil, fmt.Errorf("%w: restore: %v", wal.ErrWALFailed, err)
		}
		db.clock = ck.TS
		info.CheckpointTS = ck.TS
	}

	scan, err := wal.ReplaySegments(dir, info.CheckpointTS, db.applyWALRecord, m)
	if err != nil {
		return nil, nil, err
	}
	if scan.LastTS > db.clock {
		db.clock = scan.LastTS
	}
	info.LastTS = db.clock
	info.Records = scan.Records
	info.Segments = scan.Segments
	info.TornTail = scan.TornTail

	w, err := wal.NewWriter(dir, scan.ActiveBase, scan.ActiveSize, cfg, m)
	if err != nil {
		return nil, nil, err
	}
	ws := &walState{dir: dir, w: w, m: m, cfg: cfg}
	ws.checkpointTS.Store(info.CheckpointTS)
	db.wal = ws
	info.Duration = time.Since(start)
	return db, info, nil
}

// WALMetrics returns the DB's WAL counters (nil without a WAL).
func (db *DB) WALMetrics() *wal.Metrics {
	if db.wal == nil {
		return nil
	}
	return db.wal.m
}

// WALDir returns the log directory ("" without a WAL).
func (db *DB) WALDir() string {
	if db.wal == nil {
		return ""
	}
	return db.wal.dir
}

// CommitsSinceCheckpoint returns the number of commits logged since the
// last completed checkpoint (0 without a WAL); the engine's maintenance
// loop triggers auto-checkpoints off it.
func (db *DB) CommitsSinceCheckpoint() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.commitsSinceCkpt.Load()
}

// SetWALSyncFailpoint installs a pre-fsync fault injector on the log
// (nil removes it); a no-op without a WAL. Tests use it to exercise the
// reject-with-backoff degradation path.
func (db *DB) SetWALSyncFailpoint(f func() error) {
	if db.wal != nil {
		db.wal.w.SetSyncFailpoint(f)
	}
}

// CloseWAL flushes, fsyncs, and closes the log. Idempotent; a no-op
// without a WAL. Commits attempted afterwards fail with ErrWALFailed.
func (db *DB) CloseWAL() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.w.Close()
}

// walCommit logs one commit batch and, under SyncAlways, makes it
// durable before the caller advances the clock. Runs under commitMu;
// on error the caller rolls the applied writes back, and the writer
// guarantees the record is durably absent (truncate-repair), so the
// rejected commit can never be replayed.
func (db *DB) walCommit(ts uint64, tables []wal.TableOps) error {
	ws := db.wal
	h := db.hooks.Load()
	if h != nil && h.BeforeWALAppend != nil {
		if err := h.BeforeWALAppend(ts); err != nil {
			return err
		}
	}
	if err := ws.w.Append(&wal.CommitRecord{TS: ts, Tables: tables}); err != nil {
		return err
	}
	if h != nil && h.AfterWALAppend != nil {
		h.AfterWALAppend(ts)
	}
	if ws.cfg.Sync == wal.SyncAlways {
		if h != nil && h.BeforeWALSync != nil {
			if err := h.BeforeWALSync(ts); err != nil {
				ws.w.DiscardUnsynced()
				return err
			}
		}
		if err := ws.w.Sync(); err != nil {
			return err
		}
	}
	ws.commitsSinceCkpt.Add(1)
	return nil
}

// logDDL logs one schema record; like commits, DDL is durable before it
// takes effect under SyncAlways. Callers hold commitMu (DDL serializes
// with commits so every record lands on the correct side of a
// checkpoint's segment rotation). A nil-WAL DB logs nothing.
func (db *DB) logDDL(rec wal.Record) error {
	ws := db.wal
	if ws == nil {
		return nil
	}
	if err := ws.w.Append(rec); err != nil {
		return err
	}
	if ws.cfg.Sync == wal.SyncAlways {
		return ws.w.Sync()
	}
	return nil
}

// Checkpoint serializes the full store at the current commit timestamp
// and truncates the log's covered prefix: under the commit lock it pins
// the clock C, captures per-table snapshots at C, and rotates the log
// to a fresh segment with base timestamp C; the (possibly large)
// serialization then runs outside all locks against the pinned
// snapshots, protected by a read lease at C. The checkpoint file is
// replaced atomically, then segments below C are deleted. A crash at
// any step recovers: the old checkpoint plus the old segments, or the
// new checkpoint plus the tail, are each complete histories. A no-op
// when the clock has not advanced since the last checkpoint (DDL-only
// changes stay in the log and replay over the older checkpoint).
func (db *DB) Checkpoint() error {
	ws := db.wal
	if ws == nil {
		return fmt.Errorf("storage: Checkpoint on a DB without a WAL")
	}
	if h := db.hooks.Load(); h != nil && h.BeforeCheckpoint != nil {
		if err := h.BeforeCheckpoint(); err != nil {
			return err
		}
	}
	ws.ckptMu.Lock()
	defer ws.ckptMu.Unlock()

	type capture struct {
		t    *Table
		snap *Snapshot
		keys []KeyConstraint
		fks  []ForeignKey
	}
	db.commitMu.Lock()
	c := db.clock
	if c == ws.checkpointTS.Load() {
		db.commitMu.Unlock()
		return nil
	}
	db.mu.RLock()
	caps := make([]capture, 0, len(db.tables))
	for _, t := range db.tables {
		caps = append(caps, capture{t: t, snap: t.SnapshotAt(c), keys: t.Keys(), fks: t.ForeignKeys()})
	}
	db.mu.RUnlock()
	if err := ws.w.Rotate(c); err != nil {
		db.commitMu.Unlock()
		return err
	}
	lease := db.acquireReadAtLease(c)
	db.commitMu.Unlock()
	defer lease.Release()

	ck := &wal.CheckpointData{TS: c}
	for _, cp := range caps {
		ct := wal.CheckpointTable{Name: cp.t.Name(), Schema: cp.t.Schema()}
		for _, k := range cp.keys {
			ct.Keys = append(ct.Keys, wal.KeyDef{Name: k.Name, Columns: k.Columns, Primary: k.Primary})
		}
		for _, fk := range cp.fks {
			ct.FKs = append(ct.FKs, wal.FKDef{Name: fk.Name, Columns: fk.Columns, RefTable: fk.RefTable})
		}
		for _, row := range cp.snap.MaterializeVisible() {
			ct.Rows = append(ct.Rows, row)
		}
		ck.Tables = append(ck.Tables, ct)
	}
	if err := wal.WriteCheckpoint(ws.dir, ck); err != nil {
		return err
	}
	ws.checkpointTS.Store(c)
	ws.commitsSinceCkpt.Store(0)
	ws.w.RemoveObsolete(c)
	ws.m.Checkpoints.Inc()
	if h := db.hooks.Load(); h != nil && h.AfterCheckpoint != nil {
		h.AfterCheckpoint(c)
	}
	return nil
}

// restoreCheckpoint rebuilds tables, constraints, and rows from a
// checkpoint; every restored row version begins at the checkpoint
// timestamp (per-row history below it was compacted away, which no
// reader can observe: recovery starts the clock at or above it).
func (db *DB) restoreCheckpoint(ck *wal.CheckpointData) error {
	for _, ct := range ck.Tables {
		t, err := db.CreateTable(ct.Name, ct.Schema)
		if err != nil {
			return err
		}
		for _, k := range ct.Keys {
			if err := t.AddKey(KeyConstraint{Name: k.Name, Columns: k.Columns, Primary: k.Primary}); err != nil {
				return err
			}
		}
		for _, fk := range ct.FKs {
			if err := t.AddForeignKey(ForeignKey{Name: fk.Name, Columns: fk.Columns, RefTable: fk.RefTable}); err != nil {
				return err
			}
		}
		t.mu.Lock()
		for _, row := range ct.Rows {
			if _, err := t.insertLocked(types.Row(row), ck.TS); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		t.version.Store(ck.TS)
		t.mu.Unlock()
		if len(ct.Rows) > 0 {
			// Restored rows all landed in delta fragments; fold them
			// into main so post-recovery scans start compact.
			if err := t.MergeDelta(); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyWALRecord replays one log record during OpenDB. The WAL handle
// is not attached yet, so nothing here re-logs.
func (db *DB) applyWALRecord(rec wal.Record) error {
	switch r := rec.(type) {
	case *wal.CommitRecord:
		return db.applyWALCommit(r)
	case *wal.CreateTableRecord:
		_, err := db.CreateTable(r.Name, r.Schema)
		return err
	case *wal.DropTableRecord:
		return db.DropTable(r.Name)
	case *wal.AddKeyRecord:
		t, ok := db.Table(r.Table)
		if !ok {
			return fmt.Errorf("storage: replay AddKey: unknown table %s", r.Table)
		}
		return t.AddKey(KeyConstraint{Name: r.Key.Name, Columns: r.Key.Columns, Primary: r.Key.Primary})
	case *wal.AddForeignKeyRecord:
		t, ok := db.Table(r.Table)
		if !ok {
			return fmt.Errorf("storage: replay AddForeignKey: unknown table %s", r.Table)
		}
		return t.AddForeignKey(ForeignKey{Name: r.FK.Name, Columns: r.FK.Columns, RefTable: r.FK.RefTable})
	default:
		return fmt.Errorf("storage: replay: unknown record %T", rec)
	}
}

// applyWALCommit re-applies one logged commit at its original
// timestamp, preserving the clock-advances-only-on-commit contract.
func (db *DB) applyWALCommit(r *wal.CommitRecord) error {
	if r.TS <= db.clock {
		return fmt.Errorf("storage: replay: commit ts %d not after clock %d", r.TS, db.clock)
	}
	for _, to := range r.Tables {
		t, ok := db.Table(to.Table)
		if !ok {
			return fmt.Errorf("storage: replay: unknown table %s", to.Table)
		}
		t.mu.Lock()
		for _, op := range to.Ops {
			switch op.Kind {
			case wal.OpInsert:
				if _, err := t.insertLocked(types.Row(op.Row), r.TS); err != nil {
					t.mu.Unlock()
					return fmt.Errorf("%s: %v", to.Table, err)
				}
			case wal.OpDelete:
				pos, err := t.findLiveRowLocked(types.Row(op.Row))
				if err != nil {
					t.mu.Unlock()
					return fmt.Errorf("%s: %v", to.Table, err)
				}
				t.deleteLocked(pos, r.TS)
			default:
				t.mu.Unlock()
				return fmt.Errorf("storage: replay: unknown op kind %d", op.Kind)
			}
		}
		t.version.Store(r.TS)
		t.mu.Unlock()
	}
	db.clock = r.TS
	return nil
}

// findLiveRowLocked locates the live row whose values equal row —
// deletes are logged by value, not by position, because positions are
// not stable across a restart (recovery rebuilds the store from a
// compacted checkpoint) while the visible row multiset is. A primary
// key resolves the row through the unique index; otherwise a reverse
// linear scan finds the most recent matching live version. Caller
// holds t.mu.
func (t *Table) findLiveRowLocked(row types.Row) (int, error) {
	d := t.data
	for ki, k := range t.keys {
		if !k.Primary {
			continue
		}
		key, hasNull := rowKeyString(row, k.Columns)
		if hasNull {
			break
		}
		pos, ok := d.uniqueIdx[ki][key]
		if !ok || d.end[pos] != endInfinity {
			return -1, fmt.Errorf("replay delete: no live row for key")
		}
		if !d.rowEquals(pos, row) {
			return -1, fmt.Errorf("replay delete: key matches but values differ")
		}
		return pos, nil
	}
	target, _ := rowKeyString(row, allOrdinals(len(t.schema)))
	for r := len(d.begin) - 1; r >= 0; r-- {
		if d.end[r] != endInfinity {
			continue
		}
		if key, _ := d.keyString(r, allOrdinals(len(t.schema))); key == target {
			return r, nil
		}
	}
	return -1, fmt.Errorf("replay delete: no live row matches")
}

// rowEquals reports whether stored row pos equals row value-for-value
// (compared in the typed key encoding).
func (d *tableData) rowEquals(pos int, row types.Row) bool {
	ords := allOrdinals(len(row))
	stored, _ := d.keyString(pos, ords)
	given, _ := rowKeyString(row, ords)
	return stored == given
}

// allOrdinals returns [0, n).
func allOrdinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
