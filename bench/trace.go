package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the call (the engine is not instrumented). Spans of one
// operation share Round; Parent is the ID of the enclosing span, or -1.
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocB is the Go heap allocated between Start and End by the whole
	// process; it is attributable to the span only while one goroutine
	// is running load, which is how the traced phase runs.
	AllocB int64 `json:"alloc_b"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced twin of a traced round is
// run to price the tracing itself.
type recorder struct {
	t0    time.Time
	spans []span
	// allocs makes begin and end read the heap-allocation counter. The
	// read costs about as much as Begin plus Commit, so it is on for
	// statement spans (milliseconds) and off for commit spans.
	allocs bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	s := span{ID: id, Parent: parent, Round: round, Name: name}
	if r.allocs {
		s.AllocB = -heapAllocBytes()
	}
	s.Start = time.Since(r.t0).Nanoseconds()
	r.spans = append(r.spans, s)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = time.Since(r.t0).Nanoseconds()
	if r.allocs {
		s.AllocB += heapAllocBytes()
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its direct children cover (overlapping children are counted
// once; a child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].lo < ks[j].lo })
		at := s.Start // everything before at is already accounted for
		for _, k := range ks {
			lo, hi := max(k.lo, at), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
