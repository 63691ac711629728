// Package metrics provides the stdlib-only instrumentation primitives
// the engine's observability layer is built from: lock-free atomic
// counters and gauges, an exponential-bucket histogram for latency
// distributions, and an ordered registry that renders consistent
// name/value snapshots. Storage (delta merges, MVCC snapshot
// acquisitions, zone-map block skips), the plan cache, the cached-view
// layer, and the executor all record into these; Engine.Metrics()
// exposes the aggregate view and cmd/vdmsql prints it via \metrics.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// AddWithin adjusts the gauge by n unless that would take it above
// limit, and reports whether it did: an atomic bounded reservation.
func (g *Gauge) AddWithin(n, limit int64) bool {
	for {
		cur := g.v.Load()
		if cur+n > limit {
			return false
		}
		if g.v.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Max raises the gauge to v if v exceeds the current value — an atomic
// high-water mark.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential histogram buckets: bucket i
// holds observations v with 2^(i-1) <= v < 2^i (bucket 0 holds v <= 0
// and v == 1 lands in bucket 1). 64 buckets cover the full int64 range,
// which for nanosecond latencies spans sub-ns to ~292 years.
const histBuckets = 64

// Histogram is a lock-free exponential-bucket histogram. Observations
// are int64s (typically nanoseconds); quantiles are approximate with
// one-bucket (factor-of-two) resolution.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) with
// bucket resolution: the upper edge of the bucket containing the
// q*count-th observation.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			upper := int64(1) << uint(i)
			if m := h.Max(); m < upper {
				return m
			}
			return upper
		}
	}
	return h.Max()
}

// KV is one named metric value in a snapshot.
type KV struct {
	Name  string
	Value int64
}

// Snapshot is an ordered list of metric name/value pairs.
type Snapshot []KV

// Get returns the value for name (0, false when absent).
func (s Snapshot) Get(name string) (int64, bool) {
	for _, kv := range s {
		if kv.Name == name {
			return kv.Value, true
		}
	}
	return 0, false
}

// String renders the snapshot one metric per line, name-aligned.
func (s Snapshot) String() string {
	width := 0
	for _, kv := range s {
		if len(kv.Name) > width {
			width = len(kv.Name)
		}
	}
	var b strings.Builder
	for _, kv := range s {
		fmt.Fprintf(&b, "%-*s %d\n", width, kv.Name, kv.Value)
	}
	return b.String()
}

// Registry is an ordered collection of metrics rendered together. The
// zero value is ready to use.
type Registry struct {
	mu    sync.Mutex
	names []string
	gets  map[string]func() int64
}

// Register adds a named metric read through fn. Re-registering a name
// replaces the reader.
func (r *Registry) Register(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gets == nil {
		r.gets = map[string]func() int64{}
	}
	if _, ok := r.gets[name]; !ok {
		r.names = append(r.names, name)
	}
	r.gets[name] = fn
}

// RegisterCounter registers a Counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.Register(name, c.Value)
}

// RegisterHistogram registers a histogram's derived series
// (count/sum/mean/p50/p95/max) under the given prefix.
func (r *Registry) RegisterHistogram(prefix string, h *Histogram) {
	r.Register(prefix+".count", h.Count)
	r.Register(prefix+".sum", h.Sum)
	r.Register(prefix+".mean", func() int64 { return int64(h.Mean()) })
	r.Register(prefix+".p50", func() int64 { return h.Quantile(0.50) })
	r.Register(prefix+".p95", func() int64 { return h.Quantile(0.95) })
	r.Register(prefix+".max", h.Max)
}

// Snapshot reads every registered metric in registration order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, KV{Name: n, Value: r.gets[n]()})
	}
	return out
}

// SortedSnapshot reads every registered metric sorted by name.
func (r *Registry) SortedSnapshot() Snapshot {
	s := r.Snapshot()
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}
