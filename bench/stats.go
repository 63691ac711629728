package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it. Probing this repo, the
// spread of p99 over ten runs reached 12 % where p50 and p90 stayed
// under 7 %; a percentile resting on a handful of tail samples is a
// draw, not a measurement.
const minBeyond = 10

// samples holds the latencies of one homogeneous operation class, in
// nanoseconds.
type samples []int64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// rank is the nearest-rank index of percentile p (0 < p <= 1) among n
// ascending samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// supported reports whether n samples carry percentile p under the
// minBeyond rule.
func supported(n int, p float64) bool {
	return n > 0 && n-1-rank(n, p) >= minBeyond
}

// percentile returns the nearest-rank percentile p of ascending samples
// s, and whether the sample count supports it. With too few samples the
// value is still returned (the quick test schedule prints it), but the
// caller must not gate on it.
func percentile(s samples, p float64) (ns int64, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	return s[rank(len(s), p)], supported(len(s), p)
}

// A run is cut into latBlocks consecutive blocks. lat_p50_ms is taken
// over the quietP50 quietest of them (an eighth of the run) and lat_p90_ms
// over the quietP90 quietest (a third): for each percentile the smaller of
// the two pools that still carries it under the minBeyond rule on the
// shortest schedule (vdm_read: 320 rounds, 5 to a block).
const (
	latBlocks = 64
	quietP50  = 8
	quietP90  = 21
)

// quietest returns, ascending, the samples of the keep quietest blocks of
// a run. It cuts s, which is in the order the ops ran, into latBlocks
// consecutive blocks of equal count, ranks the blocks by their median,
// and pools the keep lowest.
//
// A neighbour on this shared box slows a run by about 1.5x for seconds
// or minutes at a time, and never speeds it up. A percentile over the
// whole run lands wherever the loud stretches push it; a percentile over
// the quietest blocks stays on the quiet level as long as that share of
// the run was quiet. Ranking is by the median, which a few slow ops in a
// block do not move, so a block is not dropped for holding the stalls p90
// is there to show. An engine regression slows every block and moves both
// percentiles in full. Where a schedule is not stationary (oltp_write's
// tables grow through the run) the quietest blocks are the early ones;
// loadgen.lat_run_p50_ms and _p90_ms are the whole run's.
func quietest(s samples, keep int) samples {
	if len(s) < latBlocks { // the quick schedule of the tests: too short to cut
		return s.sorted()
	}
	type block struct {
		median int64
		ops    samples
	}
	blocks := make([]block, latBlocks)
	for i := range blocks {
		ops := s[i*len(s)/latBlocks : (i+1)*len(s)/latBlocks]
		m, _ := percentile(ops.sorted(), 0.50)
		blocks[i] = block{m, ops}
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].median < blocks[j].median })
	var quiet samples
	for _, b := range blocks[:keep] {
		quiet = append(quiet, b.ops...)
	}
	return quiet.sorted()
}

func (s samples) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// median of float values (used for setup times and per-round shares,
// which are too few for the percentile rule and are not latencies).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
