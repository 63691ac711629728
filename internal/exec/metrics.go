package exec

import "vdm/internal/metrics"

// Metrics aggregates the executor-level counters: how often the batch
// pipelines ran, how many batches they filled, and what the batch
// compiler declined. All fields are atomic; one instance is shared by
// every Builder the engine creates (see Builder.SetMetrics).
type Metrics struct {
	// TopKFusions counts LIMIT-over-SORT pairs fused into one ORDER BY
	// operator.
	TopKFusions metrics.Counter
	// VecPipelines counts pipelines executed by the vectorized batch
	// path (row adapters and batch hash joins).
	VecPipelines metrics.Counter
	// VecBatches counts column batches filled by the vectorized path.
	VecBatches metrics.Counter
	// VecFallback* count plan nodes the batch compiler declined, by the
	// decline's label (Builder.noteFallback): an expression or join or
	// aggregate shape with no total kernel, an OR tree it cannot
	// compile, a union with non-pipeline branches, and a DISTINCT
	// aggregate.
	// VecFallbackSort and VecFallbackAnalyzeParallel are never
	// incremented: a Sort over a batch source always runs in batch mode
	// and one over anything else declines unlabelled, and nothing runs
	// in parallel. bench/layers.go sums both fields into
	// exec.vec_fallbacks and TestVecFallbackZero* read their registered
	// names, so they are deleted together with that bench/ code
	// (ROADMAP item 2).
	VecFallbackExpression      metrics.Counter
	VecFallbackOr              metrics.Counter
	VecFallbackSort            metrics.Counter
	VecFallbackUnion           metrics.Counter
	VecFallbackDistinct        metrics.Counter
	VecFallbackAnalyzeParallel metrics.Counter
	// RowOps counts row iterators built for statements that run with the
	// batch executor on: every operator the batch compiler did not take,
	// labelled or not (Builder.RowOps is the per-statement count).
	RowOps metrics.Counter
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
	r.RegisterCounter("exec.vec_fallbacks.expression", &m.VecFallbackExpression)
	r.RegisterCounter("exec.vec_fallbacks.or", &m.VecFallbackOr)
	r.RegisterCounter("exec.vec_fallbacks.sort", &m.VecFallbackSort)
	r.RegisterCounter("exec.vec_fallbacks.union", &m.VecFallbackUnion)
	r.RegisterCounter("exec.vec_fallbacks.distinct", &m.VecFallbackDistinct)
	r.RegisterCounter("exec.vec_fallbacks.analyze_parallel", &m.VecFallbackAnalyzeParallel)
	r.RegisterCounter("exec.row_ops", &m.RowOps)
	r.Register("exec.peak_query_bytes", m.PeakQueryBytes.Value)
}
