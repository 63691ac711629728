package htapbench

import (
	"encoding/json"
	"runtime"
	"sort"

	"vdm/internal/metrics"
)

// Report is the run's JSON artifact (BENCH_HTAP.json): environment
// header, per-class throughput and latency quantiles, freshness lag,
// maintenance activity, governance kills, and the invariant verdict.
type Report struct {
	Benchmark   string            `json:"benchmark"`
	Env         Env               `json:"env"`
	Totals      Totals            `json:"totals"`
	Classes     []ClassStats      `json:"classes"`
	Freshness   Freshness         `json:"freshness"`
	Maintenance Maintenance       `json:"maintenance"`
	Governance  Governance        `json:"governance"`
	Replication *Replication      `json:"replication,omitempty"`
	Invariants  InvariantsSummary `json:"invariants"`
}

// Env pins the run's environment and configuration.
type Env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Scale      int    `json:"scale"`
	Writers    int    `json:"writers"`
	Readers    int    `json:"readers"`
	Mix        string `json:"mix"`
	Mode       string `json:"mode"`
	Ops        int    `json:"ops_per_session,omitempty"`
	DurationMs int64  `json:"duration_ms,omitempty"`
	// WAL is the durability mode of the run: the sync policy when the
	// engine runs with a write-ahead log, empty for a memory-only run.
	WAL string `json:"wal,omitempty"`
	// Replicas is the WAL-shipped read-replica count, zero when the run
	// had none.
	Replicas int `json:"replicas,omitempty"`
}

// Totals aggregates across all sessions.
type Totals struct {
	WriterOps       int64   `json:"writer_ops"`
	ReaderOps       int64   `json:"reader_ops"`
	WriterOpsPerSec float64 `json:"writer_ops_per_sec"`
	ReaderOpsPerSec float64 `json:"reader_ops_per_sec"`
	ElapsedMs       int64   `json:"elapsed_ms"`
}

// ClassStats is one operation class's latency profile.
type ClassStats struct {
	Name   string `json:"name"`
	Ops    int64  `json:"ops"`
	Errors int64  `json:"errors,omitempty"`
	Killed int64  `json:"killed,omitempty"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
	MeanNs int64  `json:"mean_ns"`
}

// Freshness summarizes the watermark lag readers observed (commit-
// timestamp distance between the newest commit and the snapshot a
// reader was handed).
type Freshness struct {
	Samples int64 `json:"samples"`
	P50Lag  int64 `json:"p50_lag"`
	P95Lag  int64 `json:"p95_lag"`
	MaxLag  int64 `json:"max_lag"`
}

// Maintenance reports background-maintenance activity during the run
// (deltas of the engine's storage counters) and how long a merge and a
// compaction held their table's write lock (the engine's histograms
// since it opened, fixture load included).
type Maintenance struct {
	Commits          int64 `json:"commits"`
	DeltaMerges      int64 `json:"delta_merges"`
	AutoMerges       int64 `json:"auto_merges"`
	Vacuums          int64 `json:"vacuums"`
	VacuumedVersions int64 `json:"vacuumed_versions"`
	// VacuumDeferred counts background passes that left a table's dead
	// versions alone because too few were reclaimable to pay for a
	// compaction.
	VacuumDeferred  int64 `json:"vacuum_deferred"`
	MergeHoldP95Ns  int64 `json:"merge_hold_p95_ns"`
	MergeHoldMaxNs  int64 `json:"merge_hold_max_ns"`
	VacuumHoldP95Ns int64 `json:"vacuum_hold_p95_ns"`
	VacuumHoldMaxNs int64 `json:"vacuum_hold_max_ns"`
}

// Governance reports the engine's kill classification during the run.
type Governance struct {
	Timeouts         int64 `json:"timeouts"`
	MemBudgetKills   int64 `json:"mem_budget_kills"`
	Cancelled        int64 `json:"cancelled"`
	AdmissionRejects int64 `json:"admission_rejects"`
	PanicsRecovered  int64 `json:"panics_recovered"`
}

// Replication reports the replica fleet's behavior during the run:
// routed-read counts from both the harness's replica ops and the
// engine's read router, plus each replica's applied watermark and the
// freshness-lag quantiles sampled at every routed read.
type Replication struct {
	Replicas int    `json:"replicas"`
	MaxLag   uint64 `json:"max_replica_lag,omitempty"`
	// RoutedReads/Fallbacks count the harness's replica ops (served by
	// a replica vs. degraded to a primary-pinned read).
	RoutedReads int64 `json:"routed_reads"`
	Fallbacks   int64 `json:"primary_fallbacks"`
	// EngineReads/EngineFallbacks are the engine router's own counters
	// (deltas over the run), covering every plain read it routed.
	EngineReads     int64          `json:"engine_replica_reads"`
	EngineFallbacks int64          `json:"engine_replica_fallbacks"`
	PerReplica      []ReplicaStats `json:"per_replica"`
}

// ReplicaStats is one replica's end-of-run state and lag profile.
type ReplicaStats struct {
	ID             int    `json:"id"`
	AppliedTS      uint64 `json:"applied_ts"`
	RecordsApplied int64  `json:"records_applied"`
	Bootstraps     int64  `json:"bootstraps"`
	LagSamples     int64  `json:"lag_samples"`
	P50Lag         int64  `json:"p50_lag"`
	P95Lag         int64  `json:"p95_lag"`
	MaxLag         int64  `json:"max_lag"`
}

// InvariantsSummary is the oracle verdict.
type InvariantsSummary struct {
	Checked    map[string]int64 `json:"checked"`
	Violations int64            `json:"violations"`
	Details    []Violation      `json:"details,omitempty"`
	Digest     string           `json:"digest"`
}

// counterDelta returns after[name]-before[name] for a monotonic counter.
func counterDelta(before, after metrics.Snapshot, name string) int64 {
	b, _ := before.Get(name)
	a, _ := after.Get(name)
	return a - b
}

// gauge returns the current value of a metric that is not a running sum.
func gauge(s metrics.Snapshot, name string) int64 {
	v, _ := s.Get(name)
	return v
}

// Report assembles the run's report. Call after Run or Replay.
func (h *Harness) Report() *Report {
	after := h.eng.Metrics()
	rep := &Report{
		Benchmark: "vdmhtap",
		Env: Env{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Seed:       h.cfg.Seed,
			Scale:      h.cfg.Scale,
			Writers:    h.cfg.Writers,
			Readers:    h.cfg.Readers,
			Mix:        h.cfg.Mix.String(),
			Mode:       h.cfg.mode(),
			Ops:        h.cfg.Ops,
			WAL:        h.cfg.walMode(),
			Replicas:   h.cfg.Engine.Replicas,
		},
		Maintenance: Maintenance{
			Commits:          counterDelta(h.base, after, "storage.commits"),
			DeltaMerges:      counterDelta(h.base, after, "storage.delta_merges"),
			AutoMerges:       counterDelta(h.base, after, "storage.auto_merges"),
			Vacuums:          counterDelta(h.base, after, "storage.vacuums"),
			VacuumedVersions: counterDelta(h.base, after, "storage.vacuumed_versions"),
			VacuumDeferred:   counterDelta(h.base, after, "storage.vacuum_deferred"),
			MergeHoldP95Ns:   gauge(after, "storage.merge_hold_ns.p95"),
			MergeHoldMaxNs:   gauge(after, "storage.merge_hold_ns.max"),
			VacuumHoldP95Ns:  gauge(after, "storage.vacuum_hold_ns.p95"),
			VacuumHoldMaxNs:  gauge(after, "storage.vacuum_hold_ns.max"),
		},
		Governance: Governance{
			Timeouts:         counterDelta(h.base, after, "engine.timeouts"),
			MemBudgetKills:   counterDelta(h.base, after, "engine.mem_budget_kills"),
			Cancelled:        counterDelta(h.base, after, "engine.cancelled"),
			AdmissionRejects: counterDelta(h.base, after, "engine.admission_rejects"),
			PanicsRecovered:  counterDelta(h.base, after, "engine.panics_recovered"),
		},
	}
	if !h.cfg.Deterministic {
		rep.Env.DurationMs = h.cfg.Duration.Milliseconds()
	}

	h.mu.Lock()
	rep.Totals = Totals{
		WriterOps: h.writerOps,
		ReaderOps: h.readerOps,
		ElapsedMs: h.elapsed.Milliseconds(),
	}
	if secs := h.elapsed.Seconds(); secs > 0 {
		rep.Totals.WriterOpsPerSec = float64(h.writerOps) / secs
		rep.Totals.ReaderOpsPerSec = float64(h.readerOps) / secs
	}
	names := make([]string, 0, len(h.latency))
	for k := range h.latency {
		names = append(names, string(k))
	}
	sort.Strings(names)
	for _, name := range names {
		kind := OpKind(name)
		hist := h.latency[kind]
		rep.Classes = append(rep.Classes, ClassStats{
			Name:   name,
			Ops:    hist.Count(),
			Errors: h.errs[kind],
			Killed: h.kills[kind],
			P50Ns:  hist.Quantile(0.50),
			P95Ns:  hist.Quantile(0.95),
			P99Ns:  hist.Quantile(0.99),
			MaxNs:  hist.Max(),
			MeanNs: int64(hist.Mean()),
		})
	}
	h.mu.Unlock()

	rep.Freshness = Freshness{
		Samples: h.lagHist.Count(),
		P50Lag:  h.lagHist.Quantile(0.50),
		P95Lag:  h.lagHist.Quantile(0.95),
		MaxLag:  h.lagHist.Max(),
	}

	if set := h.eng.ReplicaSet(); set != nil {
		h.mu.Lock()
		repl := &Replication{
			Replicas:        h.cfg.Engine.Replicas,
			MaxLag:          h.cfg.Engine.MaxReplicaLag,
			RoutedReads:     h.replicaReads,
			Fallbacks:       h.replicaFallbacks,
			EngineReads:     counterDelta(h.base, after, "engine.replica_reads"),
			EngineFallbacks: counterDelta(h.base, after, "engine.replica_fallbacks"),
		}
		for _, r := range set.Replicas() {
			stats := ReplicaStats{
				ID:             r.ID(),
				AppliedTS:      r.AppliedTS(),
				RecordsApplied: r.RecordsApplied(),
				Bootstraps:     r.Bootstraps(),
			}
			if hist := h.replicaLag[r.ID()]; hist != nil {
				stats.LagSamples = hist.Count()
				stats.P50Lag = hist.Quantile(0.50)
				stats.P95Lag = hist.Quantile(0.95)
				stats.MaxLag = hist.Max()
			}
			repl.PerReplica = append(repl.PerReplica, stats)
		}
		h.mu.Unlock()
		rep.Replication = repl
	}

	details, total := h.check.Violations()
	rep.Invariants = InvariantsSummary{
		Checked:    h.check.CheckCounts(),
		Violations: total,
		Details:    details,
		Digest:     h.check.Digest(),
	}
	return rep
}

// JSON renders the report with stable indentation.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
