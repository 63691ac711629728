package exec

import (
	"fmt"
	"time"

	"vdm/internal/types"
)

// OpStats holds the runtime counters EXPLAIN ANALYZE reports for one
// plan operator. Times are inclusive: an operator's NextNs contains the
// time spent pulling from its children.
type OpStats struct {
	// Rows is the number of rows the operator produced.
	Rows int64
	// Nexts is the number of Next() calls (Rows + 1 for a fully drained
	// operator; fewer when a LIMIT above stopped early).
	Nexts int64
	// OpenNs is wall time spent in Open(), where blocking operators
	// (hash joins, group-by, sort) do their build work.
	OpenNs int64
	// NextNs is wall time spent across all Next() calls.
	NextNs int64
	// BuildRows / BuildBytes describe the materialized side of blocking
	// operators: the build rows of joins, groups for GROUP BY, buffered
	// rows for sort. Zero for streaming operators.
	BuildRows  int64
	BuildBytes int64
	// BuildFiltered is set on a batch hash join that runs a folded
	// build-side filter; BuildPass is how many of its BuildRows pass it.
	BuildFiltered bool
	BuildPass     int64
	// MemBytes is the operator's governance-accounted memory: every
	// byte it charged against the query budget (hash tables, sort
	// buffers, top-k heaps, group tables, DISTINCT seen-sets). Zero for
	// streaming operators.
	MemBytes int64
	// Mode reports which executor ran the operator: "vector" for the
	// batch kernels, "row" for the classic iterators. A Sort fused into
	// its LIMIT reports the LIMIT's.
	Mode string
	// Note is a free-form annotation (e.g. top-k fusion).
	Note string
	// Drained reports that the operator ran to the end of its stream
	// while counting its rows, so Rows is its true output cardinality.
	// An operator under a LIMIT that stopped early, or one that records
	// no rows of its own (a Sort fused into top-k), is not drained.
	Drained bool
	// Fallback is the vec_fallback label of a node the batch compiler
	// declined for a reason of its own (see Builder.noteFallback), else
	// empty. It is not part of String: EXPLAIN renders it last on the
	// line, after the estimates.
	Fallback string
}

// String renders the stats in the bracketed form EXPLAIN ANALYZE
// appends to each plan line.
func (s *OpStats) String() string {
	total := time.Duration(s.OpenNs + s.NextNs).Round(time.Microsecond)
	out := fmt.Sprintf("[rows=%d nexts=%d time=%v", s.Rows, s.Nexts, total)
	if s.BuildRows > 0 || s.BuildBytes > 0 {
		out += fmt.Sprintf(" build_rows=%d build_bytes=%d", s.BuildRows, s.BuildBytes)
	}
	if s.BuildFiltered {
		out += fmt.Sprintf(" build_filter=%d/%d", s.BuildPass, s.BuildRows)
	}
	if s.MemBytes > 0 {
		out += fmt.Sprintf(" mem_bytes=%d", s.MemBytes)
	}
	if s.Mode != "" {
		out += " mode=" + s.Mode
	}
	if s.Note != "" {
		out += " " + s.Note
	}
	return out + "]"
}

// buildSider is implemented by blocking iterators that materialize one
// input during Open(); statIter reads it once after Open returns, so the
// per-row build loop stays uninstrumented.
type buildSider interface {
	buildStats() (rows, bytes int64)
}

// rowSetBytes estimates the in-memory footprint of materialized rows:
// a fixed per-value overhead (the Value struct) plus string payloads.
func rowSetBytes(rows []types.Row) (int64, int64) {
	var n, bytes int64
	for _, r := range rows {
		n++
		bytes += rowBytes(r)
	}
	return n, bytes
}

func rowBytes(r types.Row) int64 {
	b := int64(len(r)) * 48
	for _, v := range r {
		if v.Typ == types.TString && !v.IsNull() {
			b += int64(len(v.Str()))
		}
	}
	return b
}

// buildStats counts the rows a join indexed when it builds right (a
// NULL-keyed row never probes), and every build row when it builds left.
func (j *joinIter) buildStats() (int64, int64) {
	if j.buildLeft {
		return rowSetBytes(j.rows)
	}
	var n, bytes int64
	for _, idxs := range j.table {
		for _, i := range idxs {
			n++
			bytes += rowBytes(j.rows[i])
		}
	}
	return n, bytes
}

func (g *groupByIter) buildStats() (int64, int64) {
	return rowSetBytes(g.groups)
}

// memAccounter is implemented by iterators carrying a governance memory
// account; statIter harvests the accounted bytes on Close (before the
// inner Close releases the account) into OpStats.MemBytes.
type memAccounter interface {
	memBytes() int64
}

func (j *joinIter) memBytes() int64     { return j.acct.bytes() }
func (g *groupByIter) memBytes() int64  { return g.acct.bytes() }
func (d *distinctIter) memBytes() int64 { return d.acct.bytes() }

// statIter wraps an iterator and records OpStats. It exists only when
// the builder is in analyze mode, so the normal execution path pays
// nothing for the instrumentation.
type statIter struct {
	inner Iterator
	stats *OpStats
}

func (s *statIter) Open() error {
	t0 := time.Now()
	err := s.inner.Open()
	s.stats.OpenNs += time.Since(t0).Nanoseconds()
	if err == nil {
		if bs, ok := s.inner.(buildSider); ok {
			s.stats.BuildRows, s.stats.BuildBytes = bs.buildStats()
		}
	}
	return err
}

func (s *statIter) Next() (types.Row, bool, error) {
	t0 := time.Now()
	row, ok, err := s.inner.Next()
	s.stats.NextNs += time.Since(t0).Nanoseconds()
	s.stats.Nexts++
	if ok {
		s.stats.Rows++
	} else if err == nil {
		s.stats.Drained = true
	}
	return row, ok, err
}

func (s *statIter) Close() {
	if ma, ok := s.inner.(memAccounter); ok {
		s.stats.MemBytes = ma.memBytes()
	}
	s.inner.Close()
}
