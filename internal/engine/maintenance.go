package engine

import (
	"time"
)

// Background storage maintenance: the engine-side driver of the storage
// layer's delta merge and MVCC version GC. One goroutine per engine
// wakes on a ticker and considers each table: (a) it merges a table
// whose delta reached the configured threshold, (b) it compacts a table
// once the dead row versions the snapshot watermark releases reach an
// eighth of its stored versions (storage.DB.VacuumAmortized) — a tick
// that finds less leaves the table alone, so maintenance costs what
// changed, not what is stored. The zero Options start no goroutine —
// maintenance stays fully manual (MergeAllDeltas / DB.Vacuum, which
// compact unconditionally).

// mergePollInterval is how often AutoMerge checks delta sizes when
// GCInterval does not dictate a cadence of its own.
const mergePollInterval = 10 * time.Millisecond

type maintenance struct {
	stop chan struct{}
	done chan struct{}
}

// startMaintenance launches the maintenance goroutine if the current
// options call for one. Caller must not hold engine locks.
func (e *Engine) startMaintenance() {
	if e.maint != nil || !e.opts.backgroundWork() {
		return
	}
	o := e.opts
	interval := o.GCInterval
	if o.AutoMerge && (interval <= 0 || interval > mergePollInterval) {
		interval = mergePollInterval
	}
	if o.WALDir != "" && o.CheckpointEvery > 0 && (interval <= 0 || interval > mergePollInterval) {
		interval = mergePollInterval
	}
	m := &maintenance{stop: make(chan struct{}), done: make(chan struct{})}
	e.maint = m
	go e.maintenanceLoop(m, o, interval)
}

// stopMaintenance stops the goroutine and waits for it to exit;
// idempotent.
func (e *Engine) stopMaintenance() {
	if e.maint == nil {
		return
	}
	close(e.maint.stop)
	<-e.maint.done
	e.maint = nil
}

func (e *Engine) maintenanceLoop(m *maintenance, o Options, interval time.Duration) {
	defer close(m.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var sinceGC time.Duration
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		if o.AutoMerge {
			e.autoMergePass(o.MergeThreshold)
		}
		if o.GCInterval > 0 {
			sinceGC += interval
			if sinceGC >= o.GCInterval {
				sinceGC = 0
				// Fault-injection errors abort the pass; the next tick
				// retries.
				_, _ = e.db.VacuumAmortized()
			}
		}
		if o.WALDir != "" && o.CheckpointEvery > 0 &&
			e.db.CommitsSinceCheckpoint() >= int64(o.CheckpointEvery) {
			// Checkpoint failures (fail points, transient I/O) leave the
			// counter high, so the next tick retries.
			_ = e.db.Checkpoint()
		}
	}
}

// autoMergePass merges every table whose delta fragment holds at least
// threshold rows.
func (e *Engine) autoMergePass(threshold int) {
	if threshold <= 0 {
		threshold = DefaultMergeThreshold
	}
	for _, name := range e.db.TableNames() {
		tbl, ok := e.db.Table(name)
		if !ok {
			continue
		}
		if tbl.DeltaRows() < threshold {
			continue
		}
		if err := tbl.MergeDelta(); err != nil {
			continue // fail point or merge error; retry next tick
		}
		e.db.Metrics().AutoMerges.Inc()
	}
}
