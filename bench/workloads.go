package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"vdm/internal/engine"
	"vdm/internal/htapbench"
	"vdm/internal/types"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	// quick runs a 1/20-size schedule for the tests under bench/.
	quick bool
}

// A workload is one set of inputs. Every schedule is count-bounded:
// ops = seconds × rate, where rate is a constant — about the seed commit's
// throughput on the 2-core reference box on a slow day, so that the gate's
// 92 runs fit its time budget on any day — and never a measurement. A
// faster engine therefore finishes the same schedule sooner; it does not
// end the run with bigger tables, a bigger plan cache or more heap than
// a slower one, which a time-bounded closed loop would hand it.
type workload struct {
	name string
	rate int // ops per second of --seconds
	run  func(cfg runConfig, w workload, out *outcome) error
	tiny bool // runVDM: tiny fixture, every text new
	mix  bool // runWrites: paced writer beside a reader
}

var workloads = []workload{
	{name: "vdm_read", rate: 16, run: runVDM},
	{name: "vdm_plan", rate: 45, run: runVDM, tiny: true},
	{name: "oltp_write", rate: 6000, run: runWrites},
	{name: "htap_mix", rate: mixWriteRate, run: runWrites, mix: true},
}

// mixWriteRate is htap_mix's open-loop commit rate.
const mixWriteRate = 1000

// A run repeats its set-up, up to maxSetups times, while set-up has taken
// less than setupBudget in all, and reports the median as setup_s: one
// draw of a quarter-second set-up that creates and fsyncs a WAL directory
// spread over 27 % between runs. vdm_read's three-second set-up exceeds
// the budget on its first draw and runs once.
const (
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// scaled is n, or a twentieth of it on the quick schedule.
func scaled(cfg runConfig, n int) int {
	if cfg.quick {
		n /= 20
	}
	return max(n, 1)
}

func (w workload) ops(cfg runConfig) int { return scaled(cfg, cfg.seconds*w.rate) }

// The discarded work at the end of every set-up.
const (
	warmupRounds  = 10
	warmupCommits = 2000
)

// deadline is the safety stop of a measured phase. A schedule cut short
// is a failed run: its numbers describe less work than its parent's.
const deadline = 60 * time.Second

// outcome is what a run reports.
type outcome struct {
	attempted, failed int
	notes             []string
	v                 values
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// latency fills in lat_p50_ms and lat_p90_ms from one homogeneous sample
// set, in the order the ops ran: the p50 of the run's quietest eighth and
// the p90 of its quietest third (see quietest). The whole-run percentiles
// and the tails the end-to-end list leaves out go to the per-layer list.
func (o *outcome) latency(cfg runConfig, lats samples) {
	q50, _ := percentile(quietest(lats, quietP50), 0.50)
	third := quietest(lats, quietP90)
	q90, ok := percentile(third, 0.90)
	if !ok && !cfg.quick {
		o.fail("the quietest third, %d of %d samples, does not carry a p90 under the %d-beyond rule", len(third), len(lats), minBeyond)
	}
	o.v["lat_p50_ms"], o.v["lat_p90_ms"] = ms(q50), ms(q90)
	s := lats.sorted()
	p50, _ := percentile(s, 0.50)
	p90, _ := percentile(s, 0.90)
	p99, ok99 := percentile(s, 0.99)
	o.v["loadgen.lat_run_p50_ms"], o.v["loadgen.lat_run_p90_ms"] = ms(p50), ms(p90)
	o.v["loadgen.samples"] = float64(len(s))
	if ok99 {
		o.v["loadgen.lat_p99_ms"] = ms(p99)
	}
	o.v["loadgen.lat_max_ms"] = ms(s[len(s)-1])
}

// throughput fills in loadgen.ops_per_s: a closed-loop client's ops over
// the time it spent inside the engine. The benchmark's own oracle checks
// between ops are not the engine's time.
func (o *outcome) throughput(lats samples) {
	o.v["loadgen.ops_per_s"] = float64(len(lats)) / (float64(lats.sum()) / 1e9)
}

// repeatSetup sets up repeatedly, dropping all but the last fixture, and
// returns it after storing the median set-up time as setup_s.
func repeatSetup[T any](cfg runConfig, o *outcome, setup func() (T, error), drop func(T)) (fx T, err error) {
	once := cfg.trace || cfg.quick // a traced run does not report setup_s
	var times []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		if fx, err = setup(); err != nil {
			return fx, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		times = append(times, took.Seconds())
		if once || len(times) == maxSetups || spent >= setupBudget {
			o.v["setup_s"] = median(times)
			return fx, nil
		}
		drop(fx)
		runtime.GC()
	}
}

// settle brings the engine to the state live_heap_mb is defined on:
// load stopped, no checkpoint in flight, deltas merged, dead versions
// vacuumed, heap collected.
// The merge and the vacuum are direct calls on the state the measured
// phase left behind, so their times are reported as layer metrics.
func settle(o *outcome, e *engine.Engine) {
	// A checkpoint that came due in the schedule's last commits may still
	// be serializing its table images under a read lease; neither that
	// copy nor the versions the lease pins belong to the end state. The
	// counter resets when the checkpoint completes.
	if every := int64(e.Options().CheckpointEvery); every > 0 {
		for waited := time.Now(); e.DB().CommitsSinceCheckpoint() >= every; time.Sleep(time.Millisecond) {
			if time.Since(waited) > 10*time.Second {
				o.fail("settle: the checkpoint due since the schedule ended has not completed")
				break
			}
		}
	}
	t0 := time.Now()
	if err := e.MergeAllDeltas(); err != nil {
		o.fail("settle: merge: %v", err)
	}
	o.v["storage.merge_ms"] = ms(time.Since(t0).Nanoseconds())
	t0 = time.Now()
	if _, err := e.DB().Vacuum(); err != nil {
		o.fail("settle: vacuum: %v", err)
	}
	o.v["storage.vacuum_ms"] = ms(time.Since(t0).Nanoseconds())
	heap := liveHeapBytes()
	o.v["live_heap_mb"] = float64(heap) / (1 << 20)
	o.v["runtime.rss_mb"] = rssMiB()
	db := e.DB()
	lease := db.AcquireRead()
	defer lease.Release()
	rows := 0
	for _, name := range db.TableNames() {
		if tbl, ok := db.Table(name); ok {
			rows += tbl.SnapshotAt(lease.TS()).Count()
		}
	}
	if rows > 0 {
		o.v["storage.heap_b_per_row"] = float64(heap) / float64(rows)
	}
}

// writeTrace writes the recorder's spans to cfg.traceOut, if set.
func writeTrace(cfg runConfig, rec *recorder) error {
	if cfg.traceOut == "" {
		return nil
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runVDM is vdm_read (tiny false: BenchSize fixture, plain texts, the
// plan cache always hits) and vdm_plan (tiny true: TinySize fixture,
// every text new, the plan cache never hits).
func runVDM(cfg runConfig, w workload, o *outcome) error {
	rounds, warm := w.ops(cfg), scaled(cfg, warmupRounds)
	// uniq numbers the always-true literals. Eight per round; the seed
	// picks the block, so two seeds never share a text.
	uniq := int64(0)
	checkEvery := 1
	if w.tiny {
		uniq = 1 + (cfg.seed%1000+1000)%1000*100_000_000
		checkEvery = 50 // outside the timed section, but not free
	}
	fx, err := repeatSetup(cfg, o,
		func() (*readFixture, error) { return setupVDM(w.tiny, warm, uniq) },
		func(*readFixture) {})
	if err != nil {
		return err
	}
	plain := fx.texts(0)
	texts := func(r int) []string {
		if uniq == 0 {
			return plain
		}
		return fx.texts(uniq + int64(warm+r)*8)
	}

	lats := make(samples, 0, rounds)
	before := readCounters(fx.e)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if time.Since(start) > deadline {
			o.fail("schedule cut at the %v deadline after %d of %d rounds", deadline, r, rounds)
			break
		}
		lat, msg := fx.round(texts(r), r%checkEvery == 0)
		o.attempted++
		lats = append(lats, lat.Nanoseconds())
		if msg != "" {
			o.fail("round %d: %s", r, msg)
		}
	}
	after := readCounters(fx.e)
	o.latency(cfg, lats)
	o.throughput(lats)
	o.v.counterDeltas(before, after, len(lats))
	settle(o, fx.e)
	if !cfg.trace {
		return nil
	}

	rec := newRecorder()
	names := make([]string, len(fx.stmts))
	for i, s := range fx.stmts {
		names[i] = s.name
	}
	rs := roundScript{e: fx.e, user: readUser, names: names,
		texts: func(r int) []string { return texts(rounds + r) },
		send:  func(q string) (*engine.Result, error) { return fx.e.QueryAs(readUser, q) }}
	if err := traceReads(rec, o.v, rs, scaled(cfg, tracedRounds)); err != nil {
		return err
	}
	if err := timeSelectStar(o.v, fx.e); err != nil {
		return err
	}
	if err := scanProbe(o.v, fx.e.DB(), "acdoca"); err != nil {
		return err
	}
	return writeTrace(cfg, rec)
}

// The statements of an htap_mix reader round. Literals are fixed, not
// seed-derived: the seed varies the data and the op stream, and must not
// vary how much work a round is.
var mixStatements = []struct{ name, sql string }{
	{"view_agg", `select doc_type, count(*) n, sum(amount) total from ` + htapbench.ConsumptionView +
		` group by doc_type order by doc_type`},
	{"filter_agg", `select count(*), sum(amount) from hb_active where amount >= 2500.00 and currency = 'EUR'`},
	{"topk_page", `select bid, id, doc_type, amount, currency_name from ` + htapbench.ConsumptionView +
		` order by amount desc, bid, id limit 50 offset 100`},
	{"conserve", `select sum(v) from (
		select amount v from hb_active
		union all
		select 0.00 - balance from hb_ledger
	) t`},
}

const mixPageSize = 50

// mixReader is htap_mix's one closed-loop analytical client.
type mixReader struct {
	lats     samples
	lag      []float64
	failures []string
	lastTS   uint64
}

// round runs the four statements at one leased snapshot and checks the
// mix oracles: the snapshot timestamp never moves backwards, the ledger
// balances the active documents on every snapshot, and a page is ordered
// and no longer than its limit.
func (r *mixReader) round(e *engine.Engine) (lat time.Duration, msg string) {
	db := e.DB()
	lease := db.AcquireRead()
	defer lease.Release()
	ts := lease.TS()
	if ts < r.lastTS {
		msg = fmt.Sprintf("snapshot ts moved backwards: %d after %d", ts, r.lastTS)
	}
	r.lastTS = ts
	r.lag = append(r.lag, float64(db.WatermarkLag()))
	var results [4]*engine.Result
	t0 := time.Now()
	for i, s := range mixStatements {
		res, err := e.QueryPinned(context.Background(), ts, s.sql)
		if err != nil {
			return time.Since(t0), fmt.Sprintf("%s: %v", s.name, err)
		}
		results[i] = res
	}
	lat = time.Since(t0)
	if msg != "" {
		return lat, msg
	}
	if v := results[3].Rows[0][0]; v.IsNull() || !v.Decimal().IsZero() {
		return lat, fmt.Sprintf("conserve: active sum minus ledger balance = %v, want 0.00", v)
	}
	return lat, checkPage(results[2])
}

// checkPage verifies (amount desc, bid, id) order and the page size.
// Columns: bid(0) id(1) doc_type(2) amount(3) currency_name(4).
func checkPage(res *engine.Result) string {
	if len(res.Rows) > mixPageSize {
		return fmt.Sprintf("topk_page: %d rows, limit %d", len(res.Rows), mixPageSize)
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		for _, k := range []struct {
			col  int
			desc bool
		}{{3, true}, {0, false}, {1, false}} {
			c, err := types.Compare(a[k.col], b[k.col])
			if err != nil {
				return "topk_page: " + err.Error()
			}
			if k.desc {
				c = -c
			}
			if c > 0 {
				return fmt.Sprintf("topk_page: rows %d and %d are out of order", i-1, i)
			}
			if c < 0 {
				break
			}
		}
	}
	return ""
}

// runWrites is oltp_write (mix false: one closed-loop writer, no
// readers) and htap_mix (mix true: the same writer stream paced at
// mixWriteRate beside one closed-loop reader).
func runWrites(cfg runConfig, w workload, o *outcome) error {
	mix := w.mix
	n := w.ops(cfg)
	fx, err := repeatSetup(cfg, o,
		func() (*writeFixture, error) { return setupWrites(cfg.seed, scaled(cfg, warmupCommits)) },
		(*writeFixture).discard)
	if err != nil {
		return err
	}
	defer func() { fx.discard() }()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = fx.gen.next()
	}

	service := make(samples, 0, n) // Begin to Commit, per commit
	var dueLat, lateNS samples     // htap_mix: from due time; generator oversleep
	var lag []float64
	backlogMax := 0
	interval := time.Second / mixWriteRate
	before := readCounters(fx.e)

	var reader mixReader
	var readerDone sync.WaitGroup
	stop := make(chan struct{})
	if mix {
		readerDone.Add(1)
		go func() {
			defer readerDone.Done()
			for {
				lat, msg := reader.round(fx.e)
				select {
				case <-stop:
					return // the round that outlived the writer ran partly unloaded
				default:
				}
				reader.lats = append(reader.lats, lat.Nanoseconds())
				if msg != "" {
					reader.failures = append(reader.failures, msg)
				}
			}
		}()
	}

	start := time.Now()
	var prevEnd time.Duration
	for i, next := range ops {
		now := time.Since(start)
		if now > deadline {
			o.fail("schedule cut at the %v deadline after %d of %d commits", deadline, i, n)
			break
		}
		from := now
		if mix {
			due := time.Duration(i) * interval
			if now < due {
				time.Sleep(due - now)
				now = time.Since(start)
			}
			var late time.Duration
			from, late = pacing(due, prevEnd, now)
			lateNS = append(lateNS, late.Nanoseconds())
			backlogMax = max(backlogMax, int((now-due)/interval))
		} else if i%256 == 0 {
			lag = append(lag, float64(fx.db.WatermarkLag()))
		}
		t0 := time.Since(start)
		err := fx.commit(nil, -1, i, next)
		prevEnd = time.Since(start)
		o.attempted++
		service = append(service, (prevEnd - t0).Nanoseconds())
		if mix {
			dueLat = append(dueLat, (prevEnd - from).Nanoseconds())
		}
		if err != nil {
			o.fail("commit %d: %v", i, err)
		}
	}
	wall := time.Since(start)
	close(stop)
	readerDone.Wait()
	after := readCounters(fx.e)

	sorted := service.sorted()
	var stalled int64
	for _, d := range sorted {
		if d > int64(time.Millisecond) {
			stalled += d
		}
	}
	o.v["storage.commit_stall_share"] = float64(stalled) / float64(wall.Nanoseconds())
	for _, p := range []struct {
		name string
		p    float64
	}{{"storage.commit_p99_ms", 0.99}, {"storage.commit_p999_ms", 0.999}} {
		if ns, ok := percentile(sorted, p.p); ok {
			o.v[p.name] = ms(ns)
		}
	}
	o.v["storage.commit_max_ms"] = ms(sorted[len(sorted)-1])
	if mix {
		o.attempted += len(reader.lats)
		for _, msg := range reader.failures {
			o.fail("reader: %s", msg)
		}
		if len(reader.lats) == 0 {
			return fmt.Errorf("the reader finished no round beside %d commits", len(service))
		}
		// The two sides of the mix: what the analytical client gets
		// done, and what a transaction waits.
		o.throughput(reader.lats)
		o.latency(cfg, dueLat)
		r := reader.lats.sorted()
		p50, _ := percentile(r, 0.50)
		o.v["loadgen.read_p50_ms"] = ms(p50)
		if p90, ok := percentile(r, 0.90); ok {
			o.v["loadgen.read_p90_ms"] = ms(p90)
		}
		late, _ := percentile(lateNS.sorted(), 0.50)
		o.v["loadgen.late_us"] = us(late)
		o.v["loadgen.backlog_max"] = float64(backlogMax)
		lag = reader.lag
	} else {
		o.latency(cfg, service)
		o.throughput(service)
	}
	o.v["storage.watermark_lag_p50"] = median(lag)
	o.v.counterDeltas(before, after, len(service)+len(reader.lats))
	settle(o, fx.e)

	rec := newRecorder()
	if cfg.trace {
		t0 := time.Now()
		if err := fx.e.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		o.v["wal.checkpoint_ms"] = ms(time.Since(t0).Nanoseconds())
		if err := traceCommits(rec, o.v, fx, scaled(cfg, tracedCommits)); err != nil {
			return err
		}
		if mix {
			names := make([]string, len(mixStatements))
			texts := make([]string, len(mixStatements))
			for i, s := range mixStatements {
				names[i], texts[i] = s.name, s.sql
			}
			rs := roundScript{e: fx.e, names: names,
				texts: func(int) []string { return texts },
				send: func(q string) (*engine.Result, error) {
					lease := fx.db.AcquireRead()
					defer lease.Release()
					return fx.e.QueryPinned(context.Background(), lease.TS(), q)
				}}
			if err := traceReads(rec, o.v, rs, scaled(cfg, tracedRounds)); err != nil {
				return err
			}
		}
		if err := scanProbe(o.v, fx.db, "hb_active"); err != nil {
			return err
		}
	}

	// Recovery oracle: close the log, reopen the directory, and require
	// the recovered tables to be the acknowledged stream's.
	if err := fx.e.Close(); err != nil {
		o.fail("close: %v", err)
	}
	if cfg.trace {
		if err := walProbe(o.v, fx.opts.WALDir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	reopened, err := engine.Open(fx.opts)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", fx.opts.WALDir, err)
	}
	o.v["wal.recover_ms"] = ms(time.Since(t0).Nanoseconds())
	fx.e = reopened // discard closes it
	for _, msg := range fx.verifyRecovered(reopened) {
		o.fail("recovery: %s", msg)
	}
	return writeTrace(cfg, rec)
}

// verifyRecovered compares a reopened engine with the model the writer
// kept: document counts, ledger balance, and that the two still agree
// with each other.
func (fx *writeFixture) verifyRecovered(e *engine.Engine) []string {
	var out []string
	for _, c := range []struct {
		sql  string
		want string
	}{
		{"select count(*) from hb_active", fmt.Sprint(len(fx.gen.active))},
		{"select count(*) from hb_draft", fmt.Sprint(len(fx.gen.drafts))},
		{"select balance from hb_ledger", fx.balance.String()},
		{"select sum(amount) from hb_active", fx.balance.String()},
	} {
		res, err := e.Query(c.sql)
		switch {
		case err != nil:
			out = append(out, fmt.Sprintf("%s: %v", c.sql, err))
		case len(res.Rows) != 1:
			out = append(out, fmt.Sprintf("%s: %d rows", c.sql, len(res.Rows)))
		case res.Rows[0][0].String() != c.want:
			out = append(out, fmt.Sprintf("%s = %v, acknowledged stream says %s", c.sql, res.Rows[0][0], c.want))
		}
	}
	return out
}
