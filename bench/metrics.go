package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"vdm/internal/engine"
)

// A metricDef names one reported number. BENCHMARK.json lists the same
// names, units, directions and bounds; TestManifestMatchesCode keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the engine sees. Every workload reports
// every metric, so the names are generic and each workload says what a
// latency sample is:
//
//	vdm_read, vdm_plan   a round: a fixed script of seven statements
//	oltp_write           a commit, Begin to Commit
//	htap_mix             a paced commit, from its due time
//
// A sample is never a draw from a mixed stream. lat_p50_ms and lat_p90_ms
// are taken over the run's quietest blocks (quietest in stats.go). Times
// are as measured, on whatever box runs them; README.md has the ten-seed spreads
// the bounds were set against, and why throughput (loadgen.ops_per_s) is
// not here.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.12},
}

// perLayer is the traced phase's output plus deltas of Engine.Metrics()
// counters over the measured phase. A metric that does not apply to a
// workload (wal.* on vdm_read, say) reads 0 there.
var perLayer = []metricDef{
	// sql, bind, core: per traced round, summed over its statements.
	{"sql.parse_us", "us", "lower", 0},
	{"bind.bind_us", "us", "lower", 0},
	{"core.optimize_us", "us", "lower", 0},
	{"sql.alloc_kb", "KiB", "lower", 0},
	{"bind.alloc_kb", "KiB", "lower", 0},
	{"core.alloc_kb", "KiB", "lower", 0},
	{"core.joins_in", "count", "lower", 0},
	{"core.joins_out", "count", "lower", 0},
	// exec
	{"exec.build_us", "us", "lower", 0},
	{"exec.open_us", "us", "lower", 0},
	{"exec.drain_us", "us", "lower", 0},
	{"exec.alloc_kb", "KiB", "lower", 0},
	{"exec.rows_out", "count", "lower", 0},
	{"exec.vec_batches", "count", "lower", 0},
	{"exec.vec_fallbacks", "count", "lower", 0},
	// engine
	{"engine.overhead_us", "us", "lower", 0},
	{"engine.plancache_hit_share", "ratio", "higher", 0},
	{"engine.stmt.count_star_ms", "ms", "lower", 0},
	{"engine.stmt.narrow_page_ms", "ms", "lower", 0},
	{"engine.stmt.group_by_ms", "ms", "lower", 0},
	{"engine.stmt.filtered_agg_ms", "ms", "lower", 0},
	{"engine.stmt.topk_ms", "ms", "lower", 0},
	{"engine.stmt.casejoin_page_ms", "ms", "lower", 0},
	{"engine.stmt.union_page_ms", "ms", "lower", 0},
	{"engine.stmt.view_agg_ms", "ms", "lower", 0},
	{"engine.stmt.filter_agg_ms", "ms", "lower", 0},
	{"engine.stmt.topk_page_ms", "ms", "lower", 0},
	{"engine.stmt.conserve_ms", "ms", "lower", 0},
	{"engine.stmt.select_star_ms", "ms", "lower", 0},
	// storage, read side
	{"storage.scan_ns_per_row", "ns/row", "lower", 0},
	{"storage.snapshots", "count", "lower", 0},
	{"storage.zonemap_block_skips", "count", "higher", 0},
	{"storage.watermark_lag_p50", "count", "lower", 0},
	// storage, write side
	{"storage.begin_us", "us", "lower", 0},
	{"storage.txn_ops_us", "us", "lower", 0},
	{"storage.commit_us", "us", "lower", 0},
	{"storage.commit_p99_ms", "ms", "lower", 0},
	{"storage.commit_p999_ms", "ms", "lower", 0},
	{"storage.commit_max_ms", "ms", "lower", 0},
	{"storage.commit_stall_share", "ratio", "lower", 0},
	{"storage.delta_merges", "count", "lower", 0},
	{"storage.vacuums", "count", "lower", 0},
	{"storage.vacuumed_versions", "count", "higher", 0},
	{"storage.merge_ms", "ms", "lower", 0},
	{"storage.vacuum_ms", "ms", "lower", 0},
	{"storage.heap_b_per_row", "B/row", "lower", 0},
	// wal
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_ms", "ms", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.group_commit_size", "count", "higher", 0},
	{"wal.checkpoints", "count", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	// loadgen: the benchmark's own behaviour, and the tails the
	// end-to-end list leaves out.
	{"loadgen.ops_per_s", "1/s", "higher", 0},
	{"loadgen.samples", "count", "higher", 0},
	{"loadgen.lat_run_p50_ms", "ms", "lower", 0},
	{"loadgen.lat_run_p90_ms", "ms", "lower", 0},
	{"loadgen.lat_p99_ms", "ms", "lower", 0},
	{"loadgen.lat_max_ms", "ms", "lower", 0},
	{"loadgen.read_p50_ms", "ms", "lower", 0},
	{"loadgen.read_p90_ms", "ms", "lower", 0},
	{"loadgen.box_walk_ms", "ms", "lower", 0},
	{"loadgen.late_us", "us", "lower", 0},
	{"loadgen.backlog_max", "count", "lower", 0},
	{"loadgen.trace_overhead_share", "ratio", "lower", 0},
	// trace: how a traced op's time divides among the layers.
	{"trace.plan_self_share", "ratio", "lower", 0},
	{"trace.exec_self_share", "ratio", "lower", 0},
	{"trace.storage_self_share", "ratio", "lower", 0},
	{"trace.children_cover_share", "ratio", "higher", 0},
	// runtime
	{"runtime.alloc_kb_per_op", "KiB", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.rss_mb", "MiB", "lower", 0},
}

// values collects a run's numbers by metric name.
type values map[string]float64

// runtime/metrics names read around the measured phase and around spans.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// heapAllocBytes is the cumulative bytes allocated on the Go heap. It is
// read without stopping the world, so it can bracket a span.
func heapAllocBytes() int64 {
	s := [1]metrics.Sample{{Name: rmAllocBytes}}
	metrics.Read(s[:])
	return int64(s[0].Value.Uint64())
}

// counters is a point-in-time reading of every count the benchmark
// differences over the measured phase.
type counters struct {
	engine        map[string]int64
	alloc         int64
	gcCPU, allCPU float64
}

func readCounters(e *engine.Engine) counters {
	c := counters{engine: map[string]int64{}, alloc: heapAllocBytes()}
	for _, kv := range e.Metrics() {
		c.engine[kv.Name] = kv.Value
	}
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s)
	c.gcCPU, c.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return c
}

// delta returns the growth of an Engine.Metrics() counter since before.
func (c counters) delta(before counters, name string) float64 {
	return float64(c.engine[name] - before.engine[name])
}

// counterDeltas fills in the per-layer metrics that are plain counter
// growth over the measured phase.
func (v values) counterDeltas(before, after counters, ops int) {
	for _, name := range []string{"storage.snapshots", "storage.zonemap_block_skips",
		"storage.delta_merges", "storage.vacuums", "storage.vacuumed_versions",
		"wal.fsyncs", "wal.checkpoints"} {
		v[name] = after.delta(before, name)
	}
	if f := v["wal.fsyncs"]; f > 0 {
		v["wal.group_commit_size"] = after.delta(before, "wal.appends") / f
	}
	hits, misses := after.delta(before, "plancache.hits"), after.delta(before, "plancache.misses")
	if hits+misses > 0 {
		v["engine.plancache_hit_share"] = hits / (hits + misses)
	}
	if ops > 0 {
		v["runtime.alloc_kb_per_op"] = float64(after.alloc-before.alloc) / 1024 / float64(ops)
	}
	if cpu := after.allCPU - before.allCPU; cpu > 0 {
		v["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// liveHeapBytes is the Go heap still reachable after two collections.
// The resident set is not used: it also counts freed spans the runtime
// has not returned to the OS yet, which depends on timing.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// rssMiB reads the resident set size from /proc; informational only, 0
// where /proc is absent.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// boxWalkMS times a fixed strided walk over 64 MiB, the median of five:
// how fast this box's memory system was when the run ended. It runs
// after the workload has closed its engine, so no engine change can move
// it, and is informational: two traced runs whose walks differ ran on
// boxes of different speed, and their raw per-layer times do not compare.
func boxWalkMS() float64 {
	mem := make([]int64, 8<<20)
	for i := range mem {
		mem[i] = int64(i) // fault every page in before the first timed walk
	}
	var t []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		var s int64
		idx := 0
		for i := 0; i < 1<<20; i++ {
			s += mem[idx]
			mem[idx] = s
			idx = (idx + 4099) & (len(mem) - 1) // odd stride: a new cache line every step
		}
		t = append(t, ms(time.Since(t0).Nanoseconds()))
	}
	return median(t)
}
