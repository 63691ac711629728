package main

import (
	"fmt"
	"os"
	"time"

	"vdm/internal/engine"
	"vdm/internal/exec"
	"vdm/internal/storage"
	"vdm/internal/types"
	"vdm/internal/wal"
)

// The traced phase runs on the loaded engine after the measured phase,
// with one load goroutine, so a span's time and allocations belong to
// the call it brackets.

// tracedRounds and tracedCommits size the traced phase; selectStarRuns
// is how often Figure 3's statement is timed.
const (
	tracedRounds   = 40
	tracedCommits  = 5000
	selectStarRuns = 7
)

// A roundScript is the statements of one read round and how to send one
// through the engine's front door.
type roundScript struct {
	e     *engine.Engine
	user  string
	names []string
	// texts renders round r's statements.
	texts func(r int) []string
	// send runs one statement the way the measured phase does.
	send func(text string) (*engine.Result, error)
}

// traceReads runs n iterations of three rounds each: through the front
// door with a clock around every statement (the class p50s), staged with
// spans, and staged without (the price of the spans). It fills v and
// returns the first error.
func traceReads(rec *recorder, v values, rs roundScript, n int) error {
	rec.allocs = true
	em := &exec.Metrics{}
	class := make(map[string]samples)
	var front, traced, untraced samples
	var counts stageCounts
	for r := 0; r < n; r++ {
		texts := rs.texts(3 * r)
		var sum int64
		for i, q := range texts {
			t0 := time.Now()
			if _, err := rs.send(q); err != nil {
				return fmt.Errorf("traced phase, %s: %w", rs.names[i], err)
			}
			d := time.Since(t0).Nanoseconds()
			class[rs.names[i]] = append(class[rs.names[i]], d)
			sum += d
		}
		front = append(front, sum)

		texts = rs.texts(3*r + 1)
		counts = stageCounts{}
		t0 := time.Now()
		id := rec.begin("round", -1, r)
		for i, q := range texts {
			c, err := staged(rec, id, r, rs.e, em, rs.user, q)
			if err != nil {
				return fmt.Errorf("traced phase, staged %s: %w", rs.names[i], err)
			}
			counts.joinsIn += c.joinsIn
			counts.joinsOut += c.joinsOut
			counts.rowsOut += c.rowsOut
		}
		rec.end(id)
		traced = append(traced, time.Since(t0).Nanoseconds())

		texts = rs.texts(3*r + 2)
		t0 = time.Now()
		for i, q := range texts {
			if _, err := staged(nil, -1, r, rs.e, em, rs.user, q); err != nil {
				return fmt.Errorf("traced phase, unrecorded %s: %w", rs.names[i], err)
			}
		}
		untraced = append(untraced, time.Since(t0).Nanoseconds())
	}

	for name, s := range class {
		p50, _ := percentile(s.sorted(), 0.5)
		v["engine.stmt."+name+"_ms"] = ms(p50)
	}
	// The counts of the last round stand for every round: the script is
	// fixed, so they repeat exactly. Executor counters accumulated over
	// 2n staged rounds.
	v["core.joins_in"], v["core.joins_out"] = float64(counts.joinsIn), float64(counts.joinsOut)
	v["exec.rows_out"] = float64(counts.rowsOut)
	v["exec.vec_batches"] = float64(em.VecBatches.Value()) / float64(2*n)
	fallbacks := em.VecFallbackExpression.Value() + em.VecFallbackOr.Value() + em.VecFallbackSort.Value() +
		em.VecFallbackUnion.Value() + em.VecFallbackDistinct.Value() + em.VecFallbackAnalyzeParallel.Value()
	v["exec.vec_fallbacks"] = float64(fallbacks) / float64(2*n)

	stage := spanStats(rec.spans, "round")
	for name, metric := range map[string]string{
		"sql.parse": "sql.parse_us", "bind.bind": "bind.bind_us", "core.optimize": "core.optimize_us",
		"exec.build": "exec.build_us", "exec.open": "exec.open_us", "exec.drain": "exec.drain_us",
	} {
		v[metric] = median(stage.selfUS[name])
	}
	v["sql.alloc_kb"] = median(stage.allocKB["sql.parse"])
	v["bind.alloc_kb"] = median(stage.allocKB["bind.bind"])
	v["core.alloc_kb"] = median(stage.allocKB["core.optimize"])
	v["exec.alloc_kb"] = median(sumSeries(stage.allocKB["exec.build"], stage.allocKB["exec.open"], stage.allocKB["exec.drain"]))
	v["trace.plan_self_share"] = median(stage.share("sql.parse", "bind.bind", "core.optimize"))
	v["trace.exec_self_share"] = median(stage.share("exec.build", "exec.open", "exec.drain"))
	v["trace.children_cover_share"] = median(stage.cover)

	f50, _ := percentile(front.sorted(), 0.5)
	t50, _ := percentile(traced.sorted(), 0.5)
	u50, _ := percentile(untraced.sorted(), 0.5)
	v["loadgen.trace_overhead_share"] = float64(t50-u50) / float64(u50)
	// What the front door should cost if it were only the staged calls:
	// it always parses, plans on a cache miss, then builds and runs.
	expect := v["sql.parse_us"] + (1-v["engine.plancache_hit_share"])*(v["bind.bind_us"]+v["core.optimize_us"]) +
		v["exec.build_us"] + v["exec.open_us"] + v["exec.drain_us"]
	v["engine.overhead_us"] = us(f50) - expect
	return nil
}

// stageStats holds, per top-level span ("round" or "commit"), the self
// time and allocation of each descendant span name.
type stageStats struct {
	selfUS  map[string][]float64 // per span name, one entry per top-level span
	allocKB map[string][]float64
	durUS   []float64
	cover   []float64 // share of each top-level span its children cover
}

// spanStats folds spans into per-round, per-name self times. Only leaf
// names allocate attributably; a parent's AllocB includes its children's.
func spanStats(spans []span, top string) stageStats {
	st := stageStats{selfUS: map[string][]float64{}, allocKB: map[string][]float64{}}
	self := selfTimes(spans)
	index := map[int]int{} // top-level span ID -> position
	rootOf := make([]int, len(spans))
	for _, s := range spans {
		switch {
		case s.Parent < 0 && s.Name == top:
			index[s.ID] = len(st.durUS)
			rootOf[s.ID] = s.ID
			dur := float64(s.End - s.Start)
			st.durUS = append(st.durUS, dur/1e3)
			st.cover = append(st.cover, 1-float64(self[s.ID])/dur)
		case s.Parent < 0:
			rootOf[s.ID] = -1
		default:
			rootOf[s.ID] = rootOf[s.Parent] // parents precede children
		}
	}
	for _, s := range spans {
		root := rootOf[s.ID]
		if root < 0 || root == s.ID {
			continue
		}
		i := index[root]
		for _, m := range []map[string][]float64{st.selfUS, st.allocKB} {
			if len(m[s.Name]) < len(st.durUS) {
				m[s.Name] = append(m[s.Name], make([]float64, len(st.durUS)-len(m[s.Name]))...)
			}
		}
		st.selfUS[s.Name][i] += float64(self[s.ID]) / 1e3
		st.allocKB[s.Name][i] += float64(s.AllocB) / 1024
	}
	return st
}

// share returns, per top-level span, the share of its duration that the
// named spans' self times make up.
func (st stageStats) share(names ...string) []float64 {
	out := make([]float64, len(st.durUS))
	for _, n := range names {
		for i, x := range st.selfUS[n] {
			out[i] += x / st.durUS[i]
		}
	}
	return out
}

func sumSeries(series ...[]float64) []float64 {
	var out []float64
	for _, s := range series {
		if len(out) < len(s) {
			out = append(out, make([]float64, len(s)-len(out))...)
		}
		for i, x := range s {
			out[i] += x
		}
	}
	return out
}

// timeSelectStar times Figure 3's statement a few times; too few for the
// percentile rule, so the plain median is reported.
func timeSelectStar(v values, e *engine.Engine) error {
	var t []float64
	for i := 0; i < selectStarRuns; i++ {
		t0 := time.Now()
		res, err := e.QueryAs(readUser, selectStar.text(0))
		if err != nil {
			return fmt.Errorf("select_star: %w", err)
		}
		t = append(t, ms(time.Since(t0).Nanoseconds()))
		if len(res.Rows) != selectStar.page {
			return fmt.Errorf("select_star: page of %d rows, want %d", len(res.Rows), selectStar.page)
		}
	}
	v["engine.stmt.select_star_ms"] = median(t)
	return nil
}

// scanProbe measures the storage layer's batch read alone: every column
// of every visible row of a table through Snapshot.FillVecs, in batches
// of the executor's size.
func scanProbe(v values, db *storage.DB, table string) error {
	tbl, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("scan probe: no table %s", table)
	}
	lease := db.AcquireRead()
	defer lease.Release()
	snap := tbl.SnapshotAt(lease.TS())
	rows := snap.Rows()
	if len(rows) == 0 {
		return fmt.Errorf("scan probe: %s is empty", table)
	}
	ords := make([]int, len(tbl.Schema()))
	vecs := make([]*types.Vec, len(ords))
	for i := range ords {
		ords[i], vecs[i] = i, &types.Vec{}
	}
	var perRow []float64
	for rep := 0; rep < 9; rep++ {
		t0 := time.Now()
		for lo := 0; lo < len(rows); lo += exec.DefaultBatchSize {
			snap.FillVecs(rows[lo:min(lo+exec.DefaultBatchSize, len(rows))], ords, vecs)
		}
		perRow = append(perRow, float64(time.Since(t0).Nanoseconds())/float64(len(rows)))
	}
	v["storage.scan_ns_per_row"] = median(perRow)
	return nil
}

// traceCommits issues n closed-loop commits with a span around Begin,
// the transaction's operations and Commit.
func traceCommits(rec *recorder, v values, fx *writeFixture, n int) error {
	rec.allocs = false
	for i := 0; i < n; i++ {
		id := rec.begin("commit", -1, i)
		err := fx.commit(rec, id, i, fx.gen.next())
		rec.end(id)
		if err != nil {
			return fmt.Errorf("traced commit %d: %w", i, err)
		}
	}
	st := spanStats(rec.spans, "commit")
	v["storage.begin_us"] = median(st.selfUS["storage.begin"])
	v["storage.txn_ops_us"] = median(st.selfUS["storage.txn_ops"])
	v["storage.commit_us"] = median(st.selfUS["storage.commit"])
	v["trace.storage_self_share"] = median(st.share("storage.begin", "storage.txn_ops", "storage.commit"))
	v["trace.children_cover_share"] = median(st.cover) // htap_mix's traced rounds overwrite it
	return nil
}

// walProbe replays the log tail of a closed WAL directory — the traced
// commits, since a checkpoint preceded them — into a standalone
// wal.Writer with no ticker, timing each Append and an fsync every
// fsyncEvery records. The frame sizes give wal.bytes_per_commit.
func walProbe(v values, dir string) error {
	const fsyncEvery = 100
	var recs []wal.Record
	if _, err := wal.ScanSegments(dir, 0, func(r wal.Record) error {
		if _, ok := r.(*wal.CommitRecord); ok {
			recs = append(recs, r)
		}
		return nil
	}, nil); err != nil {
		return fmt.Errorf("wal probe: scan: %w", err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("wal probe: log tail holds no commits")
	}
	var bytes int
	for _, r := range recs {
		bytes += len(wal.AppendFrame(nil, wal.EncodeRecord(r)))
	}
	v["wal.bytes_per_commit"] = float64(bytes) / float64(len(recs))

	tmp, err := os.MkdirTemp("", "vdmbench-walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	w, err := wal.NewWriter(tmp, 0, 0, wal.Config{Sync: wal.SyncOff}, nil)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer w.Close()
	var appends samples
	var fsyncs []float64
	for i, r := range recs {
		t0 := time.Now()
		if err := w.Append(r); err != nil {
			return fmt.Errorf("wal probe: append: %w", err)
		}
		appends = append(appends, time.Since(t0).Nanoseconds())
		if (i+1)%fsyncEvery == 0 {
			t0 = time.Now()
			if err := w.Sync(); err != nil {
				return fmt.Errorf("wal probe: sync: %w", err)
			}
			fsyncs = append(fsyncs, ms(time.Since(t0).Nanoseconds()))
		}
	}
	p50, _ := percentile(appends.sorted(), 0.5)
	v["wal.append_us"] = us(p50)
	v["wal.fsync_ms"] = median(fsyncs)
	return nil
}
