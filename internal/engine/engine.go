// Package engine is the public facade of the HTAP engine: it wires the
// SQL front end, catalog, binder, optimizer, executor, and storage into
// a single queryable database, mirroring the role SAP HANA plays for the
// paper's VDM workloads.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vdm/internal/bind"
	"vdm/internal/catalog"
	"vdm/internal/core"
	"vdm/internal/exec"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/storage"
	"vdm/internal/types"
	"vdm/internal/wal"
)

// Engine is an in-memory HTAP database instance.
type Engine struct {
	db      *storage.DB
	cat     *catalog.Catalog
	profile core.Profile
	// costing gates the optimizer's statistics-driven pass (hash-join
	// build-side selection and inner-join reordering); on by default.
	costing bool
	plans   *planCache // nil = caching disabled
	metrics *engineMetrics
	opts    Options
	maint   *maintenance // nil = no background maintenance
	// admit is the admission gate: a buffered channel of
	// MaxConcurrentQueries tokens (nil = unlimited). In-flight queries
	// keep a reference to the gate they entered, so SetOptions can swap
	// it without stranding them.
	admit chan struct{}
	// cacheMu serializes cached-view refreshes and guards every
	// CacheInfo.RefreshedAt (cache.go).
	cacheMu sync.Mutex
	// execHooks holds governance fault-injection hooks for tests (see
	// SetExecHooks); production engines never set them.
	execHooks atomic.Pointer[exec.Hooks]
	// rowReference runs queries on the row executor, the reference the
	// equivalence tests compare the batch executor against; only tests
	// set it.
	rowReference bool
	// recovery is what Open restored from the WAL directory (nil for
	// in-memory engines); closeMu/closed make Close idempotent.
	recovery *storage.RecoveryInfo
	closeMu  sync.Mutex
	closed   bool
}

// Options control query execution. Every query runs on the vectorized
// executor: the whole plan compiles to batch operators over column
// batches of dictionary codes and leaves batch mode only at its root.
// Every query runs on one goroutine; concurrency is between queries,
// and between readers and writers, never inside one query.
type Options struct {
	// BatchSize is the number of row positions per column batch; 0 uses
	// exec.DefaultBatchSize.
	BatchSize int

	// AutoMerge enables the background maintenance goroutine's delta
	// merging: every poll interval the engine considers each table, and
	// one whose delta reached MergeThreshold rows is merged into its main
	// fragment (extending zone maps; the merge costs O(delta)). False
	// keeps merges fully manual, as before.
	AutoMerge bool
	// MergeThreshold is the delta row count that triggers an automatic
	// merge; 0 uses DefaultMergeThreshold. Ignored unless AutoMerge.
	MergeThreshold int
	// GCInterval enables periodic MVCC version GC: every interval the
	// engine considers each table, and compacts one once the row
	// versions that the snapshot watermark proves invisible to all
	// present and future readers reach an eighth of its stored versions;
	// below that the tick costs the table nothing and its scans read at
	// most 12.5 % extra versions. 0 (the default) disables GC; a direct
	// DB.Vacuum always compacts.
	GCInterval time.Duration

	// StatementTimeout bounds each query's wall time — admission wait,
	// planning, and execution included. Expiry fails the query with the
	// typed ErrTimeout. 0 (the default) means no timeout.
	StatementTimeout time.Duration
	// MemoryBudget bounds the bytes one query may hold in blocking
	// operators (hash tables, sorts, top-k heaps, group tables,
	// materialized results). Exceeding it fails that query with the
	// typed ErrMemoryBudget — never the process. 0 means unlimited.
	MemoryBudget int64
	// MaxConcurrentQueries bounds how many queries execute at once;
	// excess queries wait in FIFO order. 0 means unlimited.
	MaxConcurrentQueries int
	// QueueTimeout bounds the admission wait when the engine is at
	// MaxConcurrentQueries; expiry fails the query with the typed
	// ErrAdmissionTimeout. 0 waits as long as the query's context (and
	// StatementTimeout) allows.
	QueueTimeout time.Duration

	// WALDir enables durability: commits are write-ahead logged under
	// this directory and Open restores checkpoint + log on start. ""
	// (the default) keeps the engine purely in-memory. The log is fixed
	// at construction — SetOptions does not attach, detach, or
	// reconfigure it.
	WALDir string
	// WALSync is the log's fsync policy (default wal.SyncAlways: a
	// commit returns only once durable). Ignored without WALDir.
	WALSync wal.SyncPolicy
	// WALSyncInterval is the background fsync cadence under
	// wal.SyncInterval; 0 uses wal.DefaultSyncEvery.
	WALSyncInterval time.Duration
	// CheckpointEvery, with WALDir set, makes the maintenance goroutine
	// write a checkpoint (and truncate the log's covered prefix) each
	// time this many commits accumulate since the last one. 0 leaves
	// checkpointing manual (Engine.Checkpoint).
	CheckpointEvery int
}

// DefaultMergeThreshold is the delta row count at which AutoMerge
// triggers a delta-to-main merge when Options.MergeThreshold is 0.
const DefaultMergeThreshold = 4096

// backgroundWork reports whether the options call for a maintenance
// goroutine. The zero value does not: the engine stays fully manual.
func (o Options) backgroundWork() bool {
	return o.AutoMerge || o.GCInterval > 0 || (o.WALDir != "" && o.CheckpointEvery > 0)
}

// New returns an empty engine with the full (SAP HANA) optimizer
// profile and serial execution.
func New() *Engine {
	return NewWithOptions(Options{})
}

// NewWithOptions returns an empty engine with the given execution
// options. With WALDir set it panics on a recovery or I/O failure —
// durable engines should use Open, which returns the error.
func NewWithOptions(o Options) *Engine {
	e, err := Open(o)
	if err != nil {
		panic(fmt.Sprintf("engine: NewWithOptions: %v (use Open for durable engines)", err))
	}
	return e
}

// Open returns an engine configured by o. With WALDir set it opens the
// durable store: restore the checkpoint, replay the WAL tail (torn
// final records are truncated, never partially replayed), restore the
// commit clock to the last durable timestamp, and arm the log; the
// outcome is readable via Recovery. Without WALDir the engine is purely
// in-memory and Open never fails.
func Open(o Options) (*Engine, error) {
	var db *storage.DB
	var rec *storage.RecoveryInfo
	if o.WALDir != "" {
		var err error
		db, rec, err = storage.OpenDB(o.WALDir, wal.Config{Sync: o.WALSync, SyncEvery: o.WALSyncInterval})
		if err != nil {
			return nil, err
		}
	} else {
		db = storage.NewDB()
	}
	e := &Engine{db: db, cat: catalog.New(db), profile: core.ProfileHANA, opts: o, costing: true, recovery: rec}
	e.admit = newAdmitGate(o)
	e.metrics = newEngineMetrics(e)
	e.startMaintenance()
	return e, nil
}

// Recovery returns what Open restored from the WAL directory at
// construction: checkpoint timestamp, replayed records, torn-tail
// truncation, restored clock, and recovery duration. Nil for an
// in-memory engine.
func (e *Engine) Recovery() *storage.RecoveryInfo { return e.recovery }

// Checkpoint forces a durable checkpoint now: table data is serialized
// at the current commit timestamp and the log's covered prefix is
// deleted. An error for engines without a WAL.
func (e *Engine) Checkpoint() error { return e.db.Checkpoint() }

// SetOptions replaces the engine's execution options; the next query
// picks them up. If the maintenance-related fields changed, the
// background loop is stopped and restarted under the new settings.
func (e *Engine) SetOptions(o Options) {
	restart := o.backgroundWork() || e.opts.backgroundWork()
	if restart {
		e.stopMaintenance()
	}
	if o.MaxConcurrentQueries != e.opts.MaxConcurrentQueries {
		e.admit = newAdmitGate(o)
	}
	e.opts = o
	if restart {
		e.startMaintenance()
	}
}

// SetExecHooks installs (or, with nil, removes) governance
// fault-injection hooks: OnPoint fires at every executor pause point of
// subsequent queries, letting tests pin a query mid-operator and
// cancel, time out, or panic it deterministically.
func (e *Engine) SetExecHooks(h *exec.Hooks) { e.execHooks.Store(h) }

// Close shuts the engine down in dependency order: first the background
// maintenance goroutine (auto-merge, GC, checkpointing) stops — nothing
// may append to the log mid-close — then the WAL is flushed, fsynced,
// and closed. Idempotent: second and later calls return nil. After
// Close the engine still answers queries from memory, but commits on a
// durable engine fail with wal.ErrWALFailed.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.stopMaintenance()
	return e.db.CloseWAL()
}

// Options returns the active execution options.
func (e *Engine) Options() Options { return e.opts }

// newBuilder returns a plan builder over db's snapshot at ts with the
// engine's execution options and metrics sink, and its governance: the
// statement context ctx, the memory budget and the test hooks.
func (e *Engine) newBuilder(ctx context.Context, p *plan.Plan, db *storage.DB, ts uint64) (*exec.Builder, *exec.Governance) {
	b := exec.NewBuilder(p.Ctx, db, ts)
	if !e.rowReference {
		b.SetVectorize(e.opts.BatchSize)
	}
	b.SetMetrics(&e.metrics.exec)
	gov := exec.NewGovernance(ctx, e.opts.MemoryBudget, e.execHooks.Load())
	b.SetGovernance(gov)
	return b, gov
}

// SetProfile switches the optimizer capability profile.
func (e *Engine) SetProfile(p core.Profile) { e.profile = p }

// EnableCosting switches the optimizer's statistics-driven pass on or
// off (on by default). Cached plans embed its decisions, so flipping it
// clears the plan cache.
func (e *Engine) EnableCosting(on bool) {
	e.costing = on
	if e.plans != nil {
		e.plans.invalidate()
	}
}

// CostingEnabled reports whether the cost-based pass is active.
func (e *Engine) CostingEnabled() bool { return e.costing }

// Profile returns the active optimizer profile.
func (e *Engine) Profile() core.Profile { return e.profile }

// Catalog exposes the metadata store.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// DB exposes the storage layer.
func (e *Engine) DB() *storage.DB { return e.db }

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    []types.Row
}

// MergeAllDeltas merges every table's write-optimized delta into its
// read-optimized main fragment and extends the zone maps over it,
// enabling block pruning for range scans (typically called after bulk
// loads). Tables that are already merged are left untouched.
func (e *Engine) MergeAllDeltas() error {
	for _, name := range e.db.TableNames() {
		tbl, ok := e.db.Table(name)
		if !ok {
			continue
		}
		if err := tbl.MergeDelta(); err != nil {
			return err
		}
	}
	return nil
}

// Exec runs a single DDL or DML statement.
func (e *Engine) Exec(sqlText string) error {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return err
	}
	return e.execStatement(st)
}

// ExecScript runs a semicolon-separated sequence of statements.
func (e *Engine) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := e.execStatement(st); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) execStatement(st sql.Statement) error {
	switch st := st.(type) {
	case *sql.CreateTable:
		return e.createTable(st)
	case *sql.CreateView:
		return e.createView(st)
	case *sql.DropTable:
		if st.View {
			return e.cat.DropView(st.Name)
		}
		return e.db.DropTable(st.Name)
	case *sql.Insert:
		return e.insert(st)
	case *sql.Delete:
		return e.delete(st)
	case *sql.Update:
		return e.update(st)
	case *sql.Query:
		_, err := e.queryStatement(context.Background(), "", st)
		return err
	}
	return fmt.Errorf("engine: unsupported statement %T", st)
}

func (e *Engine) createTable(ct *sql.CreateTable) error {
	var schema types.Schema
	for _, c := range ct.Columns {
		schema = append(schema, types.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
	}
	tbl, err := e.db.CreateTable(ct.Name, schema)
	if err != nil {
		return err
	}
	ordOf := func(name string) (int, error) {
		i := schema.IndexOf(name)
		if i < 0 {
			return 0, fmt.Errorf("engine: %s: unknown column %s in constraint", ct.Name, name)
		}
		return i, nil
	}
	for ki, k := range ct.Keys {
		kc := storage.KeyConstraint{Primary: k.Primary}
		if k.Primary {
			kc.Name = fmt.Sprintf("%s_pk", ct.Name)
		} else {
			kc.Name = fmt.Sprintf("%s_uq%d", ct.Name, ki)
		}
		for _, cn := range k.Columns {
			ord, err := ordOf(cn)
			if err != nil {
				return err
			}
			kc.Columns = append(kc.Columns, ord)
			if k.Primary {
				schema[ord].NotNull = true
			}
		}
		if err := tbl.AddKey(kc); err != nil {
			return err
		}
	}
	for fi, fk := range ct.ForeignKeys {
		sfk := storage.ForeignKey{
			Name:     fmt.Sprintf("%s_fk%d", ct.Name, fi),
			RefTable: fk.RefTable,
		}
		for _, cn := range fk.Columns {
			ord, err := ordOf(cn)
			if err != nil {
				return err
			}
			sfk.Columns = append(sfk.Columns, ord)
		}
		if err := tbl.AddForeignKey(sfk); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) createView(cv *sql.CreateView) error {
	v := &catalog.ViewDef{Name: cv.Name, Query: cv.Query, Macros: map[string]sql.Expr{}}
	for _, m := range cv.Macros {
		v.Macros[strings.ToUpper(m.Name)] = m.Expr
	}
	if err := e.cat.CreateView(v); err != nil {
		return err
	}
	// Validate eagerly so broken definitions surface at deploy time.
	b := bind.New(e.cat, "")
	if _, err := b.BindQuery(cv.Query); err != nil {
		_ = e.cat.DropView(cv.Name)
		return fmt.Errorf("engine: view %s: %v", cv.Name, err)
	}
	return nil
}

func (e *Engine) insert(ins *sql.Insert) error {
	tbl, ok := e.db.Table(ins.Table)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", ins.Table)
	}
	schema := tbl.Schema()
	// Column mapping: target ordinal for each supplied value.
	var ords []int
	if len(ins.Columns) == 0 {
		for i := range schema {
			ords = append(ords, i)
		}
	} else {
		for _, cn := range ins.Columns {
			i := schema.IndexOf(cn)
			if i < 0 {
				return fmt.Errorf("engine: %s: unknown column %s", ins.Table, cn)
			}
			ords = append(ords, i)
		}
	}
	tx := e.db.Begin()
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(ords) {
			tx.Rollback()
			return fmt.Errorf("engine: %s: %d values for %d columns", ins.Table, len(exprRow), len(ords))
		}
		row := make(types.Row, len(schema))
		for i := range row {
			row[i] = types.NewNull(schema[i].Type)
		}
		for i, se := range exprRow {
			v, err := e.evalConst(se)
			if err != nil {
				tx.Rollback()
				return err
			}
			row[ords[i]] = coerce(v, schema[ords[i]].Type)
		}
		if err := tx.Insert(tbl, row); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

// coerce adapts literal values to the column type (integer literals into
// decimal/float columns).
func coerce(v types.Value, t types.Type) types.Value {
	if v.IsNull() {
		return types.NewNull(t)
	}
	switch {
	case t == types.TDecimal && v.Typ == types.TInt:
		return types.NewDecimal(v.Decimal())
	case t == types.TFloat && (v.Typ == types.TInt || v.Typ == types.TDecimal):
		return types.NewFloat(v.Float())
	case t == types.TDate && v.Typ == types.TInt:
		return types.NewDate(v.Int())
	}
	return v
}

// evalConst evaluates a constant SQL expression (literals and functions
// of literals).
func (e *Engine) evalConst(se sql.Expr) (types.Value, error) {
	b := bind.New(e.cat, "")
	pe, err := b.BindConstExpr(se)
	if err != nil {
		return types.Value{}, err
	}
	fn, err := exec.Compile(pe, map[types.ColumnID]int{})
	if err != nil {
		return types.Value{}, err
	}
	return fn(nil)
}

func (e *Engine) delete(d *sql.Delete) error {
	tbl, ok := e.db.Table(d.Table)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", d.Table)
	}
	// The lease pins the read timestamp against concurrent version GC for
	// the whole read-then-write span; DeleteAt anchors each position to
	// the snapshot's data version so it survives compactions regardless.
	lease := e.db.AcquireRead()
	defer lease.Release()
	snap, positions, err := e.matchRows(tbl, lease.TS(), d.Where)
	if err != nil {
		return err
	}
	tx := e.db.Begin()
	for _, pos := range positions {
		if err := tx.DeleteAt(snap, pos); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

func (e *Engine) update(u *sql.Update) error {
	tbl, ok := e.db.Table(u.Table)
	if !ok {
		return fmt.Errorf("engine: table %s does not exist", u.Table)
	}
	schema := tbl.Schema()
	lease := e.db.AcquireRead()
	defer lease.Release()
	snap, positions, err := e.matchRows(tbl, lease.TS(), u.Where)
	if err != nil {
		return err
	}
	// Compile SET expressions over the table row.
	pred, slots, bErr := e.rowExprCompiler(tbl)
	if bErr != nil {
		return bErr
	}
	type setter struct {
		ord int
		fn  exec.EvalFn
	}
	var setters []setter
	for _, as := range u.Set {
		ord := schema.IndexOf(as.Column)
		if ord < 0 {
			return fmt.Errorf("engine: %s: unknown column %s", u.Table, as.Column)
		}
		pe, err := pred(as.Expr)
		if err != nil {
			return err
		}
		fn, err := exec.Compile(pe, slots)
		if err != nil {
			return err
		}
		setters = append(setters, setter{ord: ord, fn: fn})
	}
	tx := e.db.Begin()
	for _, pos := range positions {
		row := snap.Row(pos)
		newRow := row.Clone()
		for _, s := range setters {
			v, err := s.fn(row)
			if err != nil {
				tx.Rollback()
				return err
			}
			newRow[s.ord] = coerce(v, schema[s.ord].Type)
		}
		if err := tx.UpdateAt(snap, pos, newRow); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

// rowExprCompiler returns a binder for expressions over a table's row
// along with the slot map (ordinal positions).
func (e *Engine) rowExprCompiler(tbl *storage.Table) (func(sql.Expr) (plan.Expr, error), map[types.ColumnID]int, error) {
	b := bind.New(e.cat, "")
	binder, cols, err := b.TableRowBinder(tbl.Name())
	if err != nil {
		return nil, nil, err
	}
	slots := make(map[types.ColumnID]int, len(cols))
	for i, id := range cols {
		slots[id] = i
	}
	return binder, slots, nil
}

// matchRows returns a snapshot at ts plus the row positions visible in
// it that match the WHERE clause (all rows if nil). Positions are only
// meaningful against the returned snapshot (use Txn.DeleteAt/UpdateAt).
func (e *Engine) matchRows(tbl *storage.Table, ts uint64, where sql.Expr) (*storage.Snapshot, []int, error) {
	snap := tbl.SnapshotAt(ts)
	if where == nil {
		return snap, snap.Rows(), nil
	}
	binder, slots, err := e.rowExprCompiler(tbl)
	if err != nil {
		return nil, nil, err
	}
	pe, err := binder(where)
	if err != nil {
		return nil, nil, err
	}
	fn, err := exec.Compile(pe, slots)
	if err != nil {
		return nil, nil, err
	}
	var out []int
	nCols := len(tbl.Schema())
	ords := make([]int, nCols)
	for i := range ords {
		ords[i] = i
	}
	row := make(types.Row, nCols)
	// Collect positions first, then fetch values with one lock
	// acquisition per row: calling ValuesInto from inside the ForEach
	// callback would recursively RLock the table mutex, which deadlocks
	// when a writer (e.g. a background MergeDelta) queues between the
	// two acquisitions.
	for _, pos := range snap.Rows() {
		snap.ValuesInto(pos, ords, row)
		v, err := fn(row)
		if err != nil {
			return nil, nil, err
		}
		if !v.IsNull() && v.Bool() {
			out = append(out, pos)
		}
	}
	return snap, out, nil
}
