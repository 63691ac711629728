package exec

import (
	"sync"
	"sync/atomic"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Morsel-driven parallel execution of the vector pipeline. Base-table
// scans are split into fixed-size row ranges (morsels); a bounded worker
// pool claims morsels from an atomic counter and runs the whole batch
// fragment (scan→filter→project, optionally folded into partial
// aggregates) on each morsel before touching the next. Results are
// merged back in morsel sequence order, which makes parallel execution
// produce rows in exactly the serial scan order — determinism the rest
// of the engine (ORDER BY stability, group first-seen order) relies on.
// Only batch fragments run here: a shape the vector builder declines
// runs its serial row operator above children that still scan in
// parallel.

// DefaultMorselSize is the number of row positions per morsel when the
// caller does not configure one. Large enough to amortize scheduling
// and locking, small enough to keep the pool busy on skewed filters.
const DefaultMorselSize = 32768

// SetParallel enables morsel-driven parallel execution of vectorized
// pipelines for subsequent Build calls: workers is the pool size (values
// < 2 keep the serial path), morselSize the rows per morsel (0 =
// DefaultMorselSize). It has no effect without SetVectorize: the row
// operators are serial.
func (b *Builder) SetParallel(workers, morselSize int) {
	if workers < 1 {
		workers = 1
	}
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	b.workers = workers
	b.morselSize = morselSize
}

// SetMetrics directs executor counters (parallel pipelines, morsels,
// top-k fusions, vector batches and fallbacks) to m.
func (b *Builder) SetMetrics(m *Metrics) { b.met = m }

// collectMorsels runs work for every morsel seq in [0, count) across a
// bounded worker pool and returns the results in sequence order. It
// waits for all workers; the first error (by sequence) wins. A panic
// inside work is confined to its morsel and surfaces as a typed
// ErrInternal — a worker goroutine must never crash the process.
func collectMorsels[T any](count, workers int, work func(seq int) (T, error)) ([]T, error) {
	results := make([]T, count)
	errs := make([]error, count)
	if workers > count {
		workers = count
	}
	var claim int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := int(atomic.AddInt64(&claim, 1)) - 1
				if seq >= count {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[seq] = panicErr("parallel worker", r)
						}
					}()
					results[seq], errs[seq] = work(seq)
				}()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// --- parallel scan ------------------------------------------------------

// seqBatch is one morsel's output, tagged with its sequence number so
// the consumer can restore scan order.
type seqBatch struct {
	seq  int
	rows []types.Row
	err  error
}

// parallelScanIter streams a batch fragment's decoded rows through a
// worker pool, re-ordering completed morsels so rows are emitted in
// serial scan order. Workers stop as soon as the iterator is closed, so
// a LIMIT above still terminates early.
type parallelScanIter struct {
	spec       *vecSpec
	batchSize  int
	workers    int
	morselSize int

	morsels int
	started int
	claim   int64
	batches chan seqBatch
	stop    chan struct{}
	wg      sync.WaitGroup

	next    int
	pending map[int]seqBatch
	cur     []types.Row
	curPos  int
	unpin   func()
}

func (s *parallelScanIter) Open() error {
	// Register the scan's snapshot timestamp in the DB watermark for the
	// iterator's lifetime: morsel workers re-acquire the table lock per
	// batch, and the pin guarantees background version GC never reclaims
	// versions this timestamp can still see in the meantime.
	s.unpin = s.spec.snap.Pin()
	s.morsels = (s.spec.snap.NumRowVersions() + s.morselSize - 1) / s.morselSize
	s.next, s.cur, s.curPos = 0, nil, 0
	s.claim = 0
	s.pending = make(map[int]seqBatch)
	s.stop = make(chan struct{})
	s.batches = make(chan seqBatch, s.workers)
	s.started = s.workers
	if s.started > s.morsels {
		s.started = s.morsels
	}
	for w := 0; w < s.started; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc := newVecScratch(s.spec)
			for {
				select {
				case <-s.stop:
					return
				default:
				}
				seq := int(atomic.AddInt64(&s.claim, 1)) - 1
				if seq >= s.morsels {
					return
				}
				rows, err := s.runMorsel(seq, sc)
				select {
				case s.batches <- seqBatch{seq: seq, rows: rows, err: err}:
				case <-s.stop:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	if met := s.spec.met; met != nil {
		met.ParallelPipelines.Inc()
		met.MorselsScanned.Add(int64(s.morsels))
		met.VecPipelines.Inc()
	}
	return nil
}

// runMorsel executes one morsel with a recover boundary (a panic fails
// only this query, typed ErrInternal) and a governance check so a
// cancelled query stops claiming work mid-scan.
func (s *parallelScanIter) runMorsel(seq int, sc *vecScratch) (rows []types.Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, panicErr("parallel scan worker", r)
		}
	}()
	if err := s.spec.gov.point(PointScan); err != nil {
		return nil, err
	}
	lo := seq * s.morselSize
	return s.spec.collectRows(lo, lo+s.morselSize, s.batchSize, sc)
}

func (s *parallelScanIter) Next() (types.Row, bool, error) {
	for {
		if s.curPos < len(s.cur) {
			row := s.cur[s.curPos]
			s.curPos++
			return row, true, nil
		}
		if s.next >= s.morsels {
			return nil, false, nil
		}
		if b, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			if b.err != nil {
				return nil, false, b.err
			}
			s.cur, s.curPos = b.rows, 0
			s.next++
			continue
		}
		// Also wake on cancellation: a worker pinned inside a test hook
		// (or stalled storage) must not wedge the consumer.
		var b seqBatch
		select {
		case b = <-s.batches:
		case <-s.spec.gov.Done():
			return nil, false, s.spec.gov.Err()
		}
		if b.err != nil {
			return nil, false, b.err
		}
		s.pending[b.seq] = b
	}
}

func (s *parallelScanIter) Close() {
	if s.stop != nil {
		close(s.stop)
		s.wg.Wait()
		s.stop = nil
	}
	if s.unpin != nil {
		s.unpin()
		s.unpin = nil
	}
	s.pending = nil
	s.cur = nil
}

func (s *parallelScanIter) extraStats(st *OpStats) {
	st.Workers = int64(s.started)
	st.Morsels = int64(s.morsels)
}

// --- parallel group by --------------------------------------------------

// pgEntry is one group's aggregate state: a morsel's partial result, or
// the final state built by folding the partials in sequence order.
type pgEntry struct {
	key       string
	groupVals types.Row
	states    []aggState
}

// parallelGroupByIter folds each morsel through the vectorized
// aggregation kernels across a worker pool, then merges the partial
// tables in morsel order. Group output order equals the serial
// first-seen order because morsels are merged in scan order.
type parallelGroupByIter struct {
	va         *vecAggSpec
	workers    int
	morselSize int
	met        *Metrics
	gov        *Governance
	acct       memAcct
	// parBytes tracks the per-morsel partial tables reserved directly
	// against the governance tracker by workers; released after the
	// merge (Close as a backstop on error paths).
	parBytes atomic.Int64

	groups []types.Row
	pos    int
}

func (g *parallelGroupByIter) Open() error {
	// The aggregation materializes fully inside Open, so the snapshot
	// only needs its watermark pin for the duration of the morsel sweep.
	spec := g.va.spec
	unpin := spec.snap.Pin()
	defer unpin()
	g.acct = memAcct{gov: g.gov}
	naggs := len(g.va.aggs)
	morsels := (spec.snap.NumRowVersions() + g.morselSize - 1) / g.morselSize
	work := func(seq int) ([]*pgEntry, error) {
		if err := g.gov.point(PointGroupMerge); err != nil {
			return nil, err
		}
		lo := seq * g.morselSize
		t := newVecAggTable(g.va)
		if err := t.foldRange(lo, lo+g.morselSize, newVecScratch(spec)); err != nil {
			return nil, err
		}
		// Reserve the morsel's partial-table footprint; workers share
		// the tracker, so a query blowing its budget fails here no
		// matter which worker crosses the line.
		if mb := partialBytes(t.order, naggs); mb > 0 {
			if err := g.gov.grow(mb); err != nil {
				return nil, err
			}
			g.parBytes.Add(mb)
		}
		return t.order, nil
	}
	if g.starOnly() {
		// count(*)-only over an unfiltered scan: count visibility per
		// morsel without materializing any rows.
		work = func(seq int) ([]*pgEntry, error) {
			if err := g.gov.point(PointGroupMerge); err != nil {
				return nil, err
			}
			lo := seq * g.morselSize
			n := spec.snap.CountVisible(lo, lo+g.morselSize, spec.ranges)
			e := &pgEntry{states: make([]aggState, naggs)}
			for i := range e.states {
				e.states[i].count = int64(n)
			}
			return []*pgEntry{e}, nil
		}
	}
	partials, err := collectMorsels(morsels, g.workers, work)
	if err != nil {
		return err
	}
	final := make(map[string]*pgEntry)
	var order []*pgEntry
	stride := govStride{gov: g.gov}
	for _, tbl := range partials {
		for _, e := range tbl {
			if err := stride.tick(); err != nil {
				return err
			}
			f, ok := final[e.key]
			if !ok {
				f = &pgEntry{groupVals: e.groupVals, states: make([]aggState, naggs)}
				final[e.key] = f
				order = append(order, f)
				if err := g.acct.add(int64(len(e.key)) + rowBytes(e.groupVals) + int64(naggs)*aggStateBytes); err != nil {
					return err
				}
			}
			for i := range f.states {
				if err := mergeAggState(&f.states[i], &g.va.aggs[i].gspec, &e.states[i]); err != nil {
					return err
				}
			}
		}
	}
	if len(order) == 0 && g.va.scalarAgg {
		order = append(order, &pgEntry{states: make([]aggState, naggs)})
	}
	for _, e := range order {
		out := make(types.Row, 0, len(e.groupVals)+naggs)
		out = append(out, e.groupVals...)
		for i := range e.states {
			v, err := finalize(&e.states[i], &g.va.aggs[i].gspec)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		if err := g.acct.add(rowBytes(out)); err != nil {
			return err
		}
		g.groups = append(g.groups, out)
	}
	g.pos = 0
	// The per-morsel partials are garbage once merged; return their
	// reservation to the budget.
	g.releasePartials()
	if g.met != nil {
		g.met.ParallelPipelines.Inc()
		g.met.MorselsScanned.Add(int64(morsels))
		g.met.VecPipelines.Inc()
	}
	return nil
}

// releasePartials returns the workers' partial-table reservation.
func (g *parallelGroupByIter) releasePartials() {
	if n := g.parBytes.Swap(0); n > 0 {
		g.gov.release(n)
	}
}

// partialBytes estimates one morsel partial table's footprint.
func partialBytes(entries []*pgEntry, aggs int) int64 {
	var mb int64
	for _, e := range entries {
		mb += int64(len(e.key)) + rowBytes(e.groupVals) + int64(aggs)*aggStateBytes
	}
	return mb
}

// starOnly reports whether the aggregation is a bare scalar count(*)
// over an unfiltered scan — the shape that needs no row values at all.
func (g *parallelGroupByIter) starOnly() bool {
	if !g.va.scalarAgg || g.va.spec.hasFilter() {
		return false
	}
	for i := range g.va.aggs {
		if !g.va.aggs[i].star {
			return false
		}
	}
	return true
}

// sumValue renders a partial SUM/AVG state as a single value of the
// partial's dominant type, so merging reuses the serial promotion rules.
func sumValue(st *aggState) types.Value {
	switch st.sumTyp {
	case types.TFloat:
		return types.NewFloat(st.sumFloat)
	case types.TDecimal:
		return types.NewDecimal(st.sumDec)
	}
	return types.NewInt(st.sumInt)
}

// mergeAggState folds one morsel's partial state into the final state.
// Sums merge through the same promotion switch the serial accumulate
// uses, so int and decimal aggregates are bit-identical to a serial run
// (float sums may differ by association only). DISTINCT aggregates never
// reach here: the vector aggregation declines them.
func mergeAggState(dst *aggState, spec *groupSpec, src *aggState) error {
	dst.count += src.count
	if !src.sawVal {
		return nil
	}
	switch spec.op {
	case plan.AggSum, plan.AggAvg:
		return accumulateValue(dst, spec, sumValue(src))
	case plan.AggMin:
		return accumulateValue(dst, spec, src.min)
	case plan.AggMax:
		return accumulateValue(dst, spec, src.max)
	}
	return nil
}

func (g *parallelGroupByIter) Next() (types.Row, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, false, nil
	}
	row := g.groups[g.pos]
	g.pos++
	return row, true, nil
}

func (g *parallelGroupByIter) Close() {
	g.releasePartials()
	g.acct.close()
	g.groups = nil
}
