package htapbench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vdm/internal/engine"
	"vdm/internal/metrics"
	"vdm/internal/replica"
	"vdm/internal/storage"
)

// Harness owns one mixed-workload run: the engine, the fixture, the
// session fleets, the invariant checker, and the per-class latency
// accounting.
type Harness struct {
	cfg Config
	eng *engine.Engine
	db  *storage.DB
	fx  *Fixture

	activeTbl, draftTbl, ledgerTbl *storage.Table
	activePK, draftPK, ledgerPK    int

	check   *Checker
	lagHist *metrics.Histogram

	mu        sync.Mutex
	latency   map[OpKind]*metrics.Histogram
	kills     map[OpKind]int64
	errs      map[OpKind]int64
	writerOps int64
	readerOps int64

	// replicas is the read-replica set tailing the engine's WAL, owned
	// by the harness and read by the replica reader class (nil without
	// Config.Replicas).
	replicas *replica.Set
	// Replica-op accounting: per-replica freshness-lag samples taken at
	// each replica read, plus how many replica ops were served by a
	// replica versus falling back to a primary-pinned read.
	replicaLag       map[int]*metrics.Histogram
	replicaReads     int64
	replicaFallbacks int64

	base    metrics.Snapshot // engine metrics before the run
	elapsed time.Duration

	writers []*writerSession
	readers []*readerSession

	// globalLog records the deterministic scheduler's global interleave.
	globalLog []Op
}

// New builds a harness: engine with the configured options, the
// replica set tailing its WAL, fixture loaded at cfg.Scale, sessions
// constructed with their per-seed RNG streams. The caller must Close
// it.
func New(cfg Config) (*Harness, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	var e *engine.Engine
	if cfg.Engine.WALDir != "" {
		// Durable run: open (and, if the directory has a previous life,
		// recover) a WAL-backed engine. The fixture load below needs a
		// fresh directory — SetupFixture fails on recovered tables.
		e, err = engine.Open(cfg.Engine)
		if err != nil {
			return nil, err
		}
	} else {
		e = engine.NewWithOptions(cfg.Engine)
	}
	h := &Harness{
		cfg:        cfg,
		eng:        e,
		db:         e.DB(),
		check:      NewChecker(),
		lagHist:    &metrics.Histogram{},
		latency:    map[OpKind]*metrics.Histogram{},
		kills:      map[OpKind]int64{},
		errs:       map[OpKind]int64{},
		replicaLag: map[int]*metrics.Histogram{},
	}
	if cfg.Replicas > 0 {
		h.replicas, err = replica.Open(replica.Config{Dir: cfg.Engine.WALDir, Replicas: cfg.Replicas, PrimaryTS: h.db.CurrentTS})
		if err != nil {
			h.Close()
			return nil, err
		}
	}
	fx, err := SetupFixture(e, cfg)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.fx = fx
	for _, bind := range []struct {
		name string
		tbl  **storage.Table
		pk   *int
	}{
		{"hb_active", &h.activeTbl, &h.activePK},
		{"hb_draft", &h.draftTbl, &h.draftPK},
		{"hb_ledger", &h.ledgerTbl, &h.ledgerPK},
	} {
		tbl, ok := h.db.Table(bind.name)
		if !ok {
			h.Close()
			return nil, fmt.Errorf("htapbench: fixture table %s missing", bind.name)
		}
		*bind.tbl = tbl
		if *bind.pk = tbl.PrimaryKeyIndex(); *bind.pk < 0 {
			h.Close()
			return nil, fmt.Errorf("htapbench: fixture table %s has no primary key", bind.name)
		}
	}
	for i := 0; i < cfg.Writers; i++ {
		h.writers = append(h.writers, h.newWriter(i))
	}
	for i := 0; i < cfg.Readers; i++ {
		h.readers = append(h.readers, h.newReader(i))
	}
	return h, nil
}

// Engine exposes the underlying engine (tests install storage hooks
// through it).
func (h *Harness) Engine() *engine.Engine { return h.eng }

// Checker exposes the invariant checker.
func (h *Harness) Checker() *Checker { return h.check }

// Close stops the replicas' tail loops, then shuts the engine down
// (stopping background maintenance and closing the WAL they tail).
func (h *Harness) Close() {
	if h.replicas != nil {
		h.replicas.Close()
	}
	h.eng.Close()
}

func (h *Harness) observe(kind OpKind, d time.Duration) {
	h.mu.Lock()
	hist := h.latency[kind]
	if hist == nil {
		hist = &metrics.Histogram{}
		h.latency[kind] = hist
	}
	if kind.writerOp() {
		h.writerOps++
	} else {
		h.readerOps++
	}
	h.mu.Unlock()
	hist.Observe(int64(d))
}

func (h *Harness) killed(kind OpKind) {
	h.mu.Lock()
	h.kills[kind]++
	h.mu.Unlock()
}

// noteReplicaRead records a replica-served read and samples the chosen
// replica's freshness lag.
func (h *Harness) noteReplicaRead(rep *replica.Replica) {
	lag := int64(rep.Lag())
	h.mu.Lock()
	hist := h.replicaLag[rep.ID()]
	if hist == nil {
		hist = &metrics.Histogram{}
		h.replicaLag[rep.ID()] = hist
	}
	h.replicaReads++
	h.mu.Unlock()
	hist.Observe(lag)
}

// noteReplicaFallback records a replica op that fell back to a
// primary-pinned read because no replica was caught up in time.
func (h *Harness) noteReplicaFallback() {
	h.mu.Lock()
	h.replicaFallbacks++
	h.mu.Unlock()
}

// execOp executes one already-generated op on the right session type,
// records latency and feeds the outcome into the checker digest.
func (h *Harness) execOp(ctx context.Context, r *readerSession, op Op) {
	start := time.Now()
	var outcome string
	if op.Kind.writerOp() {
		outcome = h.applyWriterOp(op)
	} else {
		outcome = h.applyReaderOp(ctx, r, op)
	}
	h.observe(op.Kind, time.Since(start))
	if len(outcome) >= 4 && outcome[:4] == "err:" {
		h.mu.Lock()
		h.errs[op.Kind]++
		h.mu.Unlock()
	}
	h.check.Observe(op.encode() + " => " + outcome)
}

// Run executes the configured workload and returns the run's schedule
// log. Concurrent mode runs one goroutine per session bounded by
// Duration (and Ops if set); deterministic mode interleaves every
// session on one goroutine under a seed-derived scheduler.
func (h *Harness) Run(ctx context.Context) (*ScheduleLog, error) {
	h.base = h.eng.Metrics()
	start := time.Now()
	if h.cfg.Deterministic {
		h.runDeterministic(ctx)
	} else {
		h.runConcurrent(ctx)
	}
	h.elapsed = time.Since(start)
	return h.scheduleLog(), nil
}

func (h *Harness) runConcurrent(ctx context.Context) {
	if h.cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.cfg.Duration)
		defer cancel()
	}
	var wg sync.WaitGroup
	for _, w := range h.writers {
		wg.Add(1)
		go func(w *writerSession) {
			defer wg.Done()
			for seq := 0; h.cfg.Ops <= 0 || seq < h.cfg.Ops; seq++ {
				if ctx.Err() != nil && h.cfg.Ops <= 0 {
					return
				}
				op := w.genOp(h.cfg.Mix, seq)
				w.log = append(w.log, op)
				h.execOp(ctx, nil, op)
			}
		}(w)
	}
	for _, r := range h.readers {
		wg.Add(1)
		go func(r *readerSession) {
			defer wg.Done()
			for seq := 0; h.cfg.Ops <= 0 || seq < h.cfg.Ops; seq++ {
				if ctx.Err() != nil && h.cfg.Ops <= 0 {
					return
				}
				op := r.genOp(h.cfg.Mix, seq)
				r.log = append(r.log, op)
				h.execOp(ctx, r, op)
			}
		}(r)
	}
	wg.Wait()
}

// runDeterministic plays every session on one goroutine. The scheduler
// RNG (seeded from the run seed alone) picks which session moves next,
// so the global interleave — and therefore the schedule log and digest
// — is a pure function of the seed.
func (h *Harness) runDeterministic(ctx context.Context) {
	type slot struct {
		w   *writerSession
		r   *readerSession
		seq int
	}
	var slots []*slot
	for _, w := range h.writers {
		slots = append(slots, &slot{w: w})
	}
	for _, r := range h.readers {
		slots = append(slots, &slot{r: r})
	}
	sched := rand.New(rand.NewSource(sessionSeed(h.cfg.Seed, "scheduler")))
	for len(slots) > 0 {
		i := sched.Intn(len(slots))
		s := slots[i]
		var op Op
		if s.w != nil {
			op = s.w.genOp(h.cfg.Mix, s.seq)
			s.w.log = append(s.w.log, op)
		} else {
			op = s.r.genOp(h.cfg.Mix, s.seq)
			s.r.log = append(s.r.log, op)
		}
		s.seq++
		h.execOp(ctx, s.r, op)
		h.globalLog = append(h.globalLog, op)
		if s.seq >= h.cfg.Ops {
			slots[i] = slots[len(slots)-1]
			slots = slots[:len(slots)-1]
		}
	}
}

// scheduleLog assembles the run's schedule log.
func (h *Harness) scheduleLog() *ScheduleLog {
	l := &ScheduleLog{
		Seed:     h.cfg.Seed,
		Writers:  h.cfg.Writers,
		Readers:  h.cfg.Readers,
		Scale:    h.cfg.Scale,
		Ops:      h.cfg.Ops,
		Mix:      h.cfg.Mix.String(),
		Mode:     h.cfg.mode(),
		Replicas: h.cfg.Replicas,
	}
	if h.cfg.Deterministic {
		l.Entries = append(l.Entries, h.globalLog...)
		return l
	}
	for _, w := range h.writers {
		l.Entries = append(l.Entries, w.log...)
	}
	for _, r := range h.readers {
		l.Entries = append(l.Entries, r.log...)
	}
	return l
}

// ConfigFromLog reconstructs the run configuration a schedule log was
// recorded under, with the default engine options, so Replay rebuilds
// the identical fixture and replica fleet. The header cannot carry a
// usable WAL directory: for a log with replicas the caller sets
// Engine.WALDir, and New validates the result.
func ConfigFromLog(l *ScheduleLog) (Config, error) {
	mix, err := ParseMix(l.Mix)
	if err != nil {
		return Config{}, err
	}
	// Replay runs the log's entries and never reads Ops, but a replay is
	// deterministic, which needs an op bound: a duration-bounded run
	// records ops=0, so the bound is the most entries one session logged.
	ops := l.Ops
	if ops <= 0 {
		per := map[string]int{}
		for _, op := range l.Entries {
			per[op.Session]++
			ops = max(ops, per[op.Session])
		}
		ops = max(ops, 1)
	}
	return Config{
		Writers:       l.Writers,
		Readers:       l.Readers,
		Seed:          l.Seed,
		Scale:         l.Scale,
		Ops:           ops,
		Mix:           mix,
		Deterministic: true,
		Engine:        DefaultEngineOptions(),
		Replicas:      l.Replicas,
	}, nil
}

// Replay executes a schedule log's entries in file order on a single
// goroutine, bypassing op generation entirely: the ops carry all their
// arguments. Against the fixture rebuilt from the log's header, a
// deterministic-mode log replays to the identical outcome digest.
func (h *Harness) Replay(ctx context.Context, l *ScheduleLog) error {
	h.base = h.eng.Metrics()
	start := time.Now()
	readers := map[string]*readerSession{}
	for _, r := range h.readers {
		readers[r.name] = r
	}
	for _, op := range l.Entries {
		if !op.Kind.writerOp() {
			r, ok := readers[op.Session]
			if !ok {
				return fmt.Errorf("htapbench: log references unknown session %s", op.Session)
			}
			h.execOp(ctx, r, op)
			continue
		}
		h.execOp(ctx, nil, op)
	}
	h.elapsed = time.Since(start)
	return nil
}
