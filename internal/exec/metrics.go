package exec

import "vdm/internal/metrics"

// Metrics aggregates the executor-level counters: how often the batch
// pipelines ran and how many batches they filled. All fields are
// atomic; one instance is shared by every Builder the engine creates
// (see Builder.SetMetrics).
type Metrics struct {
	// TopKFusions counts LIMIT-over-SORT pairs fused into one ORDER BY
	// operator.
	TopKFusions metrics.Counter
	// VecPipelines counts pipelines executed by the vectorized batch
	// path (row adapters and batch hash joins).
	VecPipelines metrics.Counter
	// VecBatches counts column batches filled by the vectorized path.
	VecBatches metrics.Counter
	// VecFallback* are never incremented and not registered: the batch
	// compiler takes every plan, so nothing falls back. The fields stay
	// only because bench/layers.go sums them into its
	// exec.vec_fallbacks figure; they go with that code (ROADMAP item
	// 9).
	VecFallbackExpression      metrics.Counter
	VecFallbackOr              metrics.Counter
	VecFallbackSort            metrics.Counter
	VecFallbackUnion           metrics.Counter
	VecFallbackDistinct        metrics.Counter
	VecFallbackAnalyzeParallel metrics.Counter
	// PeakQueryBytes is the high-water mark of any single query's
	// governance-tracked memory since the engine started.
	PeakQueryBytes metrics.Gauge
}

// RegisterWith registers every executor counter in a metrics registry
// under the "exec." prefix.
func (m *Metrics) RegisterWith(r *metrics.Registry) {
	r.RegisterCounter("exec.topk_fusions", &m.TopKFusions)
	r.RegisterCounter("exec.vec_pipelines", &m.VecPipelines)
	r.RegisterCounter("exec.vec_batches", &m.VecBatches)
	r.Register("exec.peak_query_bytes", m.PeakQueryBytes.Value)
}
