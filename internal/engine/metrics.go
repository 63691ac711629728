package engine

import (
	"errors"
	"fmt"

	"vdm/internal/exec"
	"vdm/internal/metrics"
)

// engineMetrics holds the engine-level counters plus the registry that
// assembles the whole observability surface: executor activity here,
// storage counters (delta merges, snapshots, zone-map skips) from the
// DB, and plan-cache hit rates read live from whatever cache is
// currently enabled.
type engineMetrics struct {
	queries      metrics.Counter
	queryErrors  metrics.Counter
	rowsReturned metrics.Counter
	queryLatency metrics.Histogram

	// Governance counters: how queries died (one of these per failed
	// query, by typed-error class) and how admission behaved.
	cancelled        metrics.Counter
	timeouts         metrics.Counter
	memBudgetKills   metrics.Counter
	panicsRecovered  metrics.Counter
	admissionWaits   metrics.Counter
	admissionRejects metrics.Counter

	cacheRefreshes metrics.Counter

	// Read-routing counters: reads served by a replica, and reads that
	// tried a replica but fell back to the primary on a replica-side
	// execution failure.
	replicaReads     metrics.Counter
	replicaFallbacks metrics.Counter

	// exec holds the executor counters (batch pipelines and batches,
	// top-k fusions, fallbacks) shared by every builder.
	exec exec.Metrics

	registry metrics.Registry
}

func newEngineMetrics(e *Engine) *engineMetrics {
	m := &engineMetrics{}
	r := &m.registry
	r.RegisterCounter("engine.queries", &m.queries)
	r.RegisterCounter("engine.query_errors", &m.queryErrors)
	r.RegisterCounter("engine.rows_returned", &m.rowsReturned)
	r.RegisterHistogram("engine.query_latency_ns", &m.queryLatency)
	r.RegisterCounter("engine.cancelled", &m.cancelled)
	r.RegisterCounter("engine.timeouts", &m.timeouts)
	r.RegisterCounter("engine.mem_budget_kills", &m.memBudgetKills)
	r.RegisterCounter("engine.panics_recovered", &m.panicsRecovered)
	r.RegisterCounter("engine.admission_waits", &m.admissionWaits)
	r.RegisterCounter("engine.admission_rejects", &m.admissionRejects)
	// Plan-cache gauges read through the engine so EnablePlanCache can
	// swap or disable the cache without re-registering.
	r.Register("plancache.hits", func() int64 {
		if e.plans == nil {
			return 0
		}
		return e.plans.hits.Value()
	})
	r.Register("plancache.misses", func() int64 {
		if e.plans == nil {
			return 0
		}
		return e.plans.misses.Value()
	})
	r.Register("plancache.entries", func() int64 {
		if e.plans == nil {
			return 0
		}
		return int64(e.plans.len())
	})
	r.Register("plancache.template_hits", func() int64 {
		if e.plans == nil {
			return 0
		}
		return e.plans.templateHits.Value()
	})
	r.Register("plancache.evictions", func() int64 {
		if e.plans == nil {
			return 0
		}
		return e.plans.evictions.Value()
	})
	r.RegisterCounter("cachedview.refreshes", &m.cacheRefreshes)
	m.exec.RegisterWith(r)
	e.db.Metrics().RegisterWith(r)
	if wm := e.db.WALMetrics(); wm != nil {
		wm.RegisterWith(r)
	}
	// Watermark lag: how far the oldest live reader holds back version
	// GC, in commit timestamps (0 = GC can reclaim up to the current
	// clock).
	r.Register("storage.watermark_lag", func() int64 {
		return int64(e.db.WatermarkLag())
	})
	// Replication: routing counters plus each replica's applied
	// watermark, freshness lag, and shipped-record count, read live.
	if e.replicas != nil {
		r.RegisterCounter("engine.replica_reads", &m.replicaReads)
		r.RegisterCounter("engine.replica_fallbacks", &m.replicaFallbacks)
		for _, rep := range e.replicas.Replicas() {
			rep := rep
			r.Register(fmt.Sprintf("replica.%d.applied_ts", rep.ID()), func() int64 { return int64(rep.AppliedTS()) })
			r.Register(fmt.Sprintf("replica.%d.lag", rep.ID()), func() int64 { return int64(rep.Lag()) })
			r.Register(fmt.Sprintf("replica.%d.records_applied", rep.ID()), func() int64 { return rep.RecordsApplied() })
		}
	}
	return m
}

// classify bumps the governance counter matching a failed query's
// typed-error class. ErrTimeout is checked before ErrCancelled: a
// statement-timeout abort travels through the same context machinery as
// a cancellation, and the double-wrapped error matches both.
func (m *engineMetrics) classify(err error) {
	switch {
	case errors.Is(err, ErrTimeout):
		m.timeouts.Inc()
	case errors.Is(err, ErrCancelled):
		m.cancelled.Inc()
	case errors.Is(err, ErrMemoryBudget):
		m.memBudgetKills.Inc()
	case errors.Is(err, ErrInternal):
		m.panicsRecovered.Inc()
	}
}

// failFast accounts a query that died before execution started
// (admission rejection or planning failure) and passes the error
// through, so every caller-observed failure shows up in the same
// counters as execution faults.
func (m *engineMetrics) failFast(err error) error {
	m.queries.Inc()
	m.queryErrors.Inc()
	m.classify(err)
	return err
}

// Metrics returns a point-in-time snapshot of every engine, plan-cache,
// cached-view, and storage counter, in stable registration order.
// cmd/vdmsql renders it via the \metrics command.
func (e *Engine) Metrics() metrics.Snapshot {
	return e.metrics.registry.Snapshot()
}
