package storage

// TestHooks are fault-injection points for concurrency tests: each hook,
// when non-nil, is invoked at a fixed spot in the maintenance/commit
// machinery, always OUTSIDE the table and commit locks so a hook may
// block (to pin an interleaving) without deadlocking the engine. The
// Before* hooks may return an error to abort the operation (fail
// point). Production code never sets hooks; the zero DB has none.
type TestHooks struct {
	// BeforeMerge runs before MergeDelta takes the table lock; a non-nil
	// error aborts the merge.
	BeforeMerge func(table string) error
	// AfterMerge runs after MergeDelta released the table lock.
	AfterMerge func(table string)
	// BeforeVacuum runs before a vacuum pass takes the commit lock; a
	// non-nil error aborts the pass.
	BeforeVacuum func(table string) error
	// AfterVacuum runs after a vacuum pass released all locks, with the
	// number of row versions it removed.
	AfterVacuum func(table string, removed int)
	// BeforeCommitApply runs under commitMu before a transaction's
	// writes are applied, with the commit timestamp it will use; a
	// non-nil error aborts the commit (the transaction is finished and
	// its writes discarded). It runs under commitMu — blocking here
	// stalls all commits and vacuums, which is exactly what schedule
	// tests want; it must not call back into DB commit/vacuum paths.
	BeforeCommitApply func(ts uint64) error
	// AfterCommit runs after a successful commit released commitMu.
	AfterCommit func(ts uint64)
	// BeforeScanBatch runs before a snapshot collects one batch of
	// visible rows (CollectVisible), outside the table lock. It is a
	// pause-only point: blocking here pins a reader mid-scan against
	// concurrent maintenance; a hook that blocks should watch the
	// query's context so cancellation releases it.
	BeforeScanBatch func(table string)

	// WAL crashpoints (no-ops on a DB without a WAL). All three run
	// under commitMu — the crash-injection harness kills the process at
	// these points to land kill -9 exactly mid-commit. BeforeWALAppend
	// runs after the writes are applied in memory but before the commit
	// record reaches the log; an error rolls the commit back.
	BeforeWALAppend func(ts uint64) error
	// AfterWALAppend runs once the record is in the group-commit buffer
	// (not yet necessarily durable).
	AfterWALAppend func(ts uint64)
	// BeforeWALSync runs before the SyncAlways commit fsync; an error
	// aborts the commit, discarding the appended record so it cannot be
	// replayed.
	BeforeWALSync func(ts uint64) error
	// BeforeCheckpoint runs before a checkpoint pass takes any lock; an
	// error aborts the pass. AfterCheckpoint runs after the checkpoint
	// file is durable and obsolete segments are deleted, with the
	// checkpoint's commit timestamp.
	BeforeCheckpoint func() error
	AfterCheckpoint  func(ts uint64)
}

// SetTestHooks installs (or, with nil, removes) fault-injection hooks.
// Safe to call concurrently with running operations; in-flight
// operations may still see the previous hooks.
func (db *DB) SetTestHooks(h *TestHooks) { db.hooks.Store(h) }
