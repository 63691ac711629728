// Command vdmhtap runs the CH-benCHmark-style mixed-workload harness:
// concurrent OLTP writer sessions against analytical reader sessions on
// one Active/Draft document fixture, with online invariant checking
// (snapshot consistency, monotonic freshness, conservation, page
// sanity). It writes BENCH_HTAP.json and exits non-zero if any
// invariant was violated.
//
// Usage:
//
//	vdmhtap -writers 8 -readers 8 -duration 10s -seed 1 -scale 100000
//	vdmhtap -det -ops 200 -schedule run.sched   # deterministic, replayable
//	vdmhtap -replay run.sched                   # replay a recorded schedule
//	vdmhtap -wal state/ -duration 10s           # durable run (WAL + checkpoints)
//	vdmhtap -wal state/ -replicas 2             # WAL-shipped read replicas, read by
//	                                            # the replica-consistency reader class
//	vdmhtap -crash-recover 25                   # crash-injection: SIGKILL mid-commit,
//	                                            # recover, re-verify the oracles
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vdm/internal/htapbench"
	"vdm/internal/wal"
)

func main() {
	var (
		writers  = flag.Int("writers", 8, "OLTP writer sessions")
		readers  = flag.Int("readers", 8, "analytical reader sessions")
		duration = flag.Duration("duration", 10*time.Second, "run length (concurrent mode)")
		seed     = flag.Int64("seed", 1, "workload seed")
		scale    = flag.Int("scale", 100_000, "preloaded active documents")
		mixSpec  = flag.String("mix", "default", "operation mix: preset (default, write-heavy, read-heavy) or key=weight list")
		ops      = flag.Int("ops", 0, "operations per session (0 = duration-bounded; required with -det)")
		det      = flag.Bool("det", false, "deterministic single-goroutine mode (byte-identical logs per seed)")
		out      = flag.String("out", "BENCH_HTAP.json", "report output path")
		schedule = flag.String("schedule", "", "write the schedule log to this path")
		replay   = flag.String("replay", "", "replay a recorded schedule log instead of generating a workload")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-statement timeout (0 disables)")
		memlimit = flag.Int64("memlimit", 256<<20, "per-query memory budget in bytes (0 disables)")
		maxq     = flag.Int("maxq", 0, "max concurrent queries admitted (0 = unlimited)")

		walDir  = flag.String("wal", "", "durability directory: write-ahead log + checkpoints (empty = memory only; must be fresh for workload runs)")
		walSync = flag.String("wal-sync", "always", "WAL fsync policy with -wal: always, interval, off")

		replicas = flag.Int("replicas", 0, "WAL-shipped analytical read replicas (requires -wal and the replica reader class, which it adds to a mix that does not name it)")

		crashRecover = flag.Int("crash-recover", 0, "crash-injection mode: run this many SIGKILL+recover cycles against the -wal directory (temp dir if unset) and verify the oracles")

		// Internal flags for the crash-recover child process.
		crashChild    = flag.Bool("crash-child", false, "internal: run as the crash-recovery victim process")
		crashCycle    = flag.Int("crash-cycle", 0, "internal: kill-cycle number for -crash-child")
		crashProgress = flag.String("crash-progress", "", "internal: durable-commit progress file for -crash-child")
	)
	flag.Parse()

	if *crashChild {
		if err := runCrashChild(*walDir, *crashCycle, *crashProgress, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "vdmhtap (crash child):", err)
			os.Exit(1)
		}
		return
	}
	if *crashRecover > 0 {
		if err := runCrashRecover(*walDir, *crashRecover, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "vdmhtap:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*writers, *readers, *duration, *seed, *scale, *mixSpec,
		*ops, *det, *out, *schedule, *replay, *timeout, *memlimit, *maxq,
		*walDir, *walSync, *replicas); err != nil {
		fmt.Fprintln(os.Stderr, "vdmhtap:", err)
		os.Exit(1)
	}
}

func run(writers, readers int, duration time.Duration, seed int64, scale int,
	mixSpec string, ops int, det bool, out, schedule, replay string,
	timeout time.Duration, memlimit int64, maxq int,
	walDir, walSync string, replicas int) error {

	var (
		h   *htapbench.Harness
		log *htapbench.ScheduleLog
		err error
	)
	if replay != "" {
		data, rerr := os.ReadFile(replay)
		if rerr != nil {
			return rerr
		}
		log, err = htapbench.ParseScheduleLog(data)
		if err != nil {
			return err
		}
		cfg, cerr := htapbench.ConfigFromLog(log)
		if cerr != nil {
			return cerr
		}
		if cfg.Replicas > 0 {
			// The header records the fleet size but not a usable WAL
			// path; replay the replica ops against a throwaway one.
			tmp, terr := os.MkdirTemp("", "vdmhtap-replay-wal-")
			if terr != nil {
				return terr
			}
			defer os.RemoveAll(tmp)
			cfg.Engine.WALDir = tmp
			cfg.Engine.WALSync = wal.SyncOff
		}
		fmt.Fprintf(os.Stderr, "vdmhtap: replaying %d ops (seed=%d writers=%d readers=%d scale=%d replicas=%d)\n",
			len(log.Entries), cfg.Seed, cfg.Writers, cfg.Readers, cfg.Scale, log.Replicas)
		h, err = htapbench.New(cfg)
		if err != nil {
			return err
		}
		defer h.Close()
		if err := h.Replay(context.Background(), log); err != nil {
			return err
		}
	} else {
		mix, merr := htapbench.ParseMix(mixSpec)
		if merr != nil {
			return merr
		}
		eng := htapbench.DefaultEngineOptions()
		eng.StatementTimeout = timeout
		eng.MemoryBudget = memlimit
		eng.MaxConcurrentQueries = maxq
		if walDir != "" {
			sp, perr := wal.ParseSyncPolicy(walSync)
			if perr != nil {
				return perr
			}
			eng.WALDir = walDir
			eng.WALSync = sp
			eng.CheckpointEvery = 1000
		}
		// Give the replica reader class a default seat in the mix
		// unless the -mix spec took a position on it.
		if replicas > 0 && mix.Replica == 0 && !strings.Contains(mixSpec, "replica") {
			mix.Replica = 2
		}
		cfg := htapbench.Config{
			Writers:       writers,
			Readers:       readers,
			Duration:      duration,
			Ops:           ops,
			Seed:          seed,
			Scale:         scale,
			Mix:           mix,
			Deterministic: det,
			Engine:        eng,
			Replicas:      replicas,
		}
		fmt.Fprintf(os.Stderr, "vdmhtap: loading fixture (scale=%d)\n", scale)
		h, err = htapbench.New(cfg)
		if err != nil {
			return err
		}
		defer h.Close()
		if replicas > 0 {
			fmt.Fprintf(os.Stderr, "vdmhtap: running %d writers + %d readers (seed=%d, %d replicas)\n",
				writers, readers, seed, replicas)
		} else {
			fmt.Fprintf(os.Stderr, "vdmhtap: running %d writers + %d readers (seed=%d)\n",
				writers, readers, seed)
		}
		log, err = h.Run(context.Background())
		if err != nil {
			return err
		}
	}

	if schedule != "" && log != nil {
		if err := os.WriteFile(schedule, log.Encode(), 0o644); err != nil {
			return err
		}
	}

	rep := h.Report()
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"vdmhtap: %d writer ops (%.0f/s), %d reader ops (%.0f/s), digest %s, %d violation(s) -> %s\n",
		rep.Totals.WriterOps, rep.Totals.WriterOpsPerSec,
		rep.Totals.ReaderOps, rep.Totals.ReaderOpsPerSec,
		rep.Invariants.Digest, rep.Invariants.Violations, out)
	if rep.Invariants.Violations > 0 {
		for _, v := range rep.Invariants.Details {
			fmt.Fprintln(os.Stderr, "  violation:", v)
		}
		return fmt.Errorf("%d invariant violation(s)", rep.Invariants.Violations)
	}
	return nil
}
