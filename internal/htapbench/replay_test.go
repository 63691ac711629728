package htapbench

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"vdm/internal/storage"
)

func detConfig() Config {
	return Config{
		Writers:       2,
		Readers:       2,
		Ops:           25,
		Seed:          42,
		Scale:         1200,
		Deterministic: true,
		Engine:        DefaultEngineOptions(),
	}
}

func runDet(t *testing.T, cfg Config, hooks *storage.TestHooks) ([]byte, string, *Report) {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if hooks != nil {
		h.db.SetTestHooks(hooks)
	}
	log, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return log.Encode(), h.check.Digest(), h.Report()
}

// TestDeterministicReplayIdentical is the replay contract: two runs
// from the same seed produce byte-identical schedule logs AND identical
// invariant-checker digests (the digest covers every operation outcome,
// so it also proves the execution results matched, not just the plans).
func TestDeterministicReplayIdentical(t *testing.T) {
	log1, dig1, rep1 := runDet(t, detConfig(), nil)
	log2, dig2, _ := runDet(t, detConfig(), nil)
	if !bytes.Equal(log1, log2) {
		t.Fatal("same-seed schedule logs differ")
	}
	if dig1 != dig2 {
		t.Fatalf("same-seed digests differ: %s vs %s", dig1, dig2)
	}
	if rep1.Invariants.Violations != 0 {
		t.Fatalf("violations in deterministic run: %v", rep1.Invariants.Details)
	}
	// A different seed must actually change the schedule.
	cfg := detConfig()
	cfg.Seed = 43
	log3, _, _ := runDet(t, cfg, nil)
	if bytes.Equal(log1, log3) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestReplayFromLog parses a recorded log, rebuilds the fixture from
// its header, replays it, and checks the outcome digest matches the
// original run's.
func TestReplayFromLog(t *testing.T) {
	logBytes, origDigest, _ := runDet(t, detConfig(), nil)
	log, err := ParseScheduleLog(logBytes)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Replay(context.Background(), log); err != nil {
		t.Fatal(err)
	}
	if got := h.check.Digest(); got != origDigest {
		t.Fatalf("replay digest %s != original %s", got, origDigest)
	}
	if rep := h.Report(); rep.Invariants.Violations != 0 {
		t.Fatalf("replay violations: %v", rep.Invariants.Details)
	}
}

// TestReplayDurationBoundedLog records a concurrent, duration-bounded
// run, whose log header says ops=0, and replays it: ConfigFromLog takes
// the op bound from the log's entries, and the replay sees no invariant
// violation.
func TestReplayDurationBoundedLog(t *testing.T) {
	cfg := Config{Writers: 1, Readers: 1, Duration: 200 * time.Millisecond, Seed: 1, Scale: 300, Engine: DefaultEngineOptions()}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := h.Run(context.Background())
	h.Close()
	if err != nil {
		t.Fatal(err)
	}
	log, err := ParseScheduleLog(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if log.Ops != 0 || len(log.Entries) == 0 {
		t.Fatalf("recorded ops=%d with %d entries, want a duration-bounded log", log.Ops, len(log.Entries))
	}
	replayCfg, err := ConfigFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Replay(context.Background(), log); err != nil {
		t.Fatal(err)
	}
	if rep := r.Report(); rep.Invariants.Violations != 0 {
		t.Fatalf("replay violations: %v", rep.Invariants.Details)
	}
}

// TestReplayReproducesInjectedFailure injects a fail point that aborts
// one specific commit (selected by its commit timestamp, which in
// deterministic mode is a pure function of the schedule) and checks the
// replayed run hits the identical failure: same digest, same error
// count. This is the "failures replay exactly" property the harness
// exists for.
func TestReplayReproducesInjectedFailure(t *testing.T) {
	// Find a commit timestamp the run actually uses: run clean first and
	// count commits, then target one in the middle.
	_, _, cleanRep := runDet(t, detConfig(), nil)
	commits := cleanRep.Maintenance.Commits
	if commits < 10 {
		t.Fatalf("clean run committed only %d times", commits)
	}

	var seen int64
	failAt := func() *storage.TestHooks {
		seen = 0
		return &storage.TestHooks{
			BeforeCommitApply: func(ts uint64) error {
				seen++
				if seen == commits/2 {
					return fmt.Errorf("injected commit failure #%d", seen)
				}
				return nil
			},
		}
	}

	log1, dig1, rep1 := runDet(t, detConfig(), failAt())
	var errTotal int64
	for _, c := range rep1.Classes {
		errTotal += c.Errors
	}
	if errTotal == 0 {
		t.Fatal("injected failure did not surface as an op error")
	}

	log2, dig2, _ := runDet(t, detConfig(), failAt())
	if !bytes.Equal(log1, log2) {
		t.Fatal("schedule logs differ across identically-faulted runs")
	}
	if dig1 != dig2 {
		t.Fatalf("faulted-run digests differ: %s vs %s", dig1, dig2)
	}

	// And the failure digest must differ from the clean run's — the
	// digest actually witnesses the outcome, not just the schedule.
	_, cleanDigest, _ := runDet(t, detConfig(), nil)
	if dig1 == cleanDigest {
		t.Fatal("faulted digest equals clean digest; outcome not captured")
	}
}
