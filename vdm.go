// Package vdm is the public facade of the HTAP Virtual Data Model
// reproduction: an in-memory columnar SQL engine whose optimizer
// implements the query rewrites the paper identifies as essential for
// VDM workloads — unused augmentation join (UAJ) elimination,
// augmentation self-join (ASJ) elimination, limit pushdown across
// augmentation joins, Union All key derivation, the CASE JOIN
// declaration, join cardinality specifications, expression macros, and
// ALLOW_PRECISION_LOSS.
//
// Quick start:
//
//	db := vdm.NewEngine()
//	db.Exec(`create table t (id bigint primary key, name varchar)`)
//	db.Exec(`insert into t values (1, 'hello')`)
//	res, _ := db.Query(`select name from t`)
//
// The optimizer can be switched between the capability profiles of the
// five systems evaluated in the paper (Tables 1–4):
//
//	db.SetProfile(vdm.ProfilePostgres)
//	plan, _ := db.Explain("", "select ...")
package vdm

import (
	"vdm/internal/catalog"
	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/metrics"
	"vdm/internal/plan"
	"vdm/internal/s4"
	"vdm/internal/sql"
	"vdm/internal/storage"
	"vdm/internal/tpch"
	"vdm/internal/vdm"
	"vdm/internal/wal"
)

// Engine is an in-memory HTAP database instance.
type Engine = engine.Engine

// Result is a materialized query result.
type Result = engine.Result

// Profile is an optimizer capability profile.
type Profile = core.Profile

// Capability is one optimizer capability bit.
type Capability = core.Capability

// PlanStats is an operator census of a query plan.
type PlanStats = plan.Stats

// Trace is the optimizer's structured rule trace — every rewrite fired
// (with join-count deltas) and every rule the profile skipped — as
// returned by Engine.TraceQuery.
type Trace = core.Trace

// TraceEvent is one rewrite recorded in a Trace.
type TraceEvent = core.TraceEvent

// MetricsSnapshot is a point-in-time snapshot of the engine, plan
// cache, cached view, and storage counters, as returned by
// Engine.Metrics.
type MetricsSnapshot = metrics.Snapshot

// Model is the VDM view-modeling layer (layers, associations, custom
// field extensions).
type Model = vdm.Model

// Association is a CDS-style association usable in path expressions.
type Association = vdm.Association

// ExtensionSpec describes a §5 custom-field extension.
type ExtensionSpec = vdm.ExtensionSpec

// UnionExtensionSpecT describes a §6.3 Active/Draft custom-field
// extension (named with a T suffix to avoid colliding with the
// constructor-style helpers).
type UnionExtensionSpecT = vdm.UnionExtensionSpec

// Layer classifies a VDM view (basic / composite / consumption).
type Layer = vdm.Layer

// View layers per the paper's Figure 2.
const (
	LayerBasic       = vdm.LayerBasic
	LayerComposite   = vdm.LayerComposite
	LayerConsumption = vdm.LayerConsumption
)

// DACPolicy is a record-wise data access control policy.
type DACPolicy = catalog.DACPolicy

// Optimizer profiles of the five systems evaluated in the paper's
// Tables 1–4, plus the two special profiles used by Figure 14.
var (
	ProfileHANA           = core.ProfileHANA
	ProfilePostgres       = core.ProfilePostgres
	ProfileSystemX        = core.ProfileSystemX
	ProfileSystemY        = core.ProfileSystemY
	ProfileSystemZ        = core.ProfileSystemZ
	ProfileNone           = core.ProfileNone
	ProfileHANANoCaseJoin = core.ProfileHANANoCaseJoin
)

// Typed query-lifecycle errors (match with errors.Is). A query that
// dies under governance — cancelled context, statement timeout, memory
// budget, recovered panic, or admission-queue timeout — returns an
// error wrapping exactly one of these.
var (
	ErrCancelled        = engine.ErrCancelled
	ErrTimeout          = engine.ErrTimeout
	ErrMemoryBudget     = engine.ErrMemoryBudget
	ErrInternal         = engine.ErrInternal
	ErrAdmissionTimeout = engine.ErrAdmissionTimeout
	// ErrTooDeep reports a statement nested beyond the parser's
	// recursion limit.
	ErrTooDeep = sql.ErrTooDeep
	// ErrWALFailed reports a write-ahead-log I/O failure: the commit was
	// rejected (and rolled back); reads keep serving. Transient fsync
	// errors clear after a backoff window.
	ErrWALFailed = wal.ErrWALFailed
)

// SyncPolicy selects when a durable engine fsyncs its write-ahead log.
type SyncPolicy = wal.SyncPolicy

// WAL sync policies: SyncAlways fsyncs before acknowledging each
// commit, SyncInterval group-commits on a background ticker, SyncOff
// leaves durability to the OS page cache.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncOff      = wal.SyncOff
)

// ParseSyncPolicy parses the CLI spelling of a sync policy ("always",
// "interval", "off").
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// RecoveryInfo summarizes what OpenEngine restored: checkpoint
// timestamp, replayed records, torn-tail truncation, and the wall time
// recovery took.
type RecoveryInfo = storage.RecoveryInfo

// Options configures an engine (executor mode and batch size, background
// maintenance, WAL and replicas, and the query-governance knobs:
// StatementTimeout, MemoryBudget, MaxConcurrentQueries, QueueTimeout).
// Every query runs on one goroutine.
type Options = engine.Options

// NewEngine returns an empty engine with the full optimizer profile.
func NewEngine() *Engine { return engine.New() }

// NewEngineWithOptions returns an empty engine configured by o. It
// panics if o requests durability (Options.WALDir) and the log cannot
// be opened; use OpenEngine to handle that error.
func NewEngineWithOptions(o Options) *Engine { return engine.NewWithOptions(o) }

// OpenEngine opens a durable engine rooted at o.WALDir: it restores the
// latest checkpoint, replays the WAL tail (truncating a torn final
// record), and resumes the commit clock at the last durable timestamp.
// Engine.Recovery reports what was restored. With an empty WALDir it
// behaves exactly like NewEngineWithOptions.
func OpenEngine(o Options) (*Engine, error) { return engine.Open(o) }

// NewModel returns the VDM modeling layer over an engine.
func NewModel(e *Engine) *Model { return vdm.NewModel(e) }

// TPCHScale configures the TPC-H generator.
type TPCHScale = tpch.Scale

// NewTPCHEngine returns an engine loaded with the TPC-H-style schema
// and deterministic data (with foreign-key metadata).
func NewTPCHEngine(sc TPCHScale) (*Engine, error) {
	e := engine.New()
	if err := tpch.Setup(e, sc, true); err != nil {
		return nil, err
	}
	return e, nil
}

// TPCHTiny is a unit-test-sized TPC-H scale.
func TPCHTiny() TPCHScale { return tpch.TinyScale() }

// TPCHBench is a benchmark-sized TPC-H scale.
func TPCHBench() TPCHScale { return tpch.BenchScale() }

// S4Size configures the synthetic S/4HANA generator.
type S4Size = s4.Size

// NewS4Engine returns an engine loaded with the synthetic S/4HANA
// schema, data, and the full VDM stack (JournalEntryItemBrowser, DAC).
func NewS4Engine(sz S4Size) (*Engine, error) {
	e := engine.New()
	if err := s4.Setup(e, sz); err != nil {
		return nil, err
	}
	return e, nil
}

// S4Tiny is a unit-test-sized S/4HANA volume.
func S4Tiny() S4Size { return s4.TinySize() }

// S4Bench is a benchmark-sized S/4HANA volume.
func S4Bench() S4Size { return s4.BenchSize() }
