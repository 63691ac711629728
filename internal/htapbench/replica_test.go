package htapbench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"vdm/internal/wal"
)

// replicaConfig is a run with a WAL-shipped replica pair and the
// replica reader class enabled.
func replicaConfig(dir string, det bool) Config {
	eng := DefaultEngineOptions()
	eng.WALDir = dir
	eng.WALSync = wal.SyncOff
	mix := DefaultMix()
	mix.Replica = 3
	return Config{
		Writers:       2,
		Readers:       2,
		Ops:           25,
		Seed:          42,
		Scale:         1200,
		Mix:           mix,
		Deterministic: det,
		Engine:        eng,
		Replicas:      2,
	}
}

// TestReplicaOpsConcurrent runs the full mix with replica readers
// against two live replicas: every replica op must either be served by
// a caught-up replica or fall back explicitly, the replica-consistency
// oracle must fire, and nothing may be violated.
func TestReplicaOpsConcurrent(t *testing.T) {
	h, err := New(replicaConfig(t.TempDir(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := h.Report()
	if rep.Invariants.Violations != 0 {
		t.Fatalf("violations: %v", rep.Invariants.Details)
	}
	if rep.Replication == nil {
		t.Fatal("report has no replication section")
	}
	if rep.Replication.RoutedReads == 0 {
		t.Fatal("no replica op was served by a replica")
	}
	if rep.Invariants.Checked["replica-consistency"] != rep.Replication.RoutedReads {
		t.Fatalf("replica-consistency checked %d times, routed %d reads",
			rep.Invariants.Checked["replica-consistency"], rep.Replication.RoutedReads)
	}
	if got := len(rep.Replication.PerReplica); got != 2 {
		t.Fatalf("per-replica stats for %d replicas, want 2", got)
	}
	if rep.Env.Replicas != 2 {
		t.Fatalf("Env.Replicas = %d, want 2", rep.Env.Replicas)
	}
}

// TestReplicaOpsDeterministic: with replicas in the mix the run stays
// a pure function of the seed — the single-threaded scheduler freezes
// the primary clock during each replica op, the tailers drain to it,
// and the op pins exactly the reader's timestamp.
func TestReplicaOpsDeterministic(t *testing.T) {
	run := func(dir string) ([]byte, string, *Report) {
		h, err := New(replicaConfig(dir, true))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		log, err := h.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return log.Encode(), h.check.Digest(), h.Report()
	}
	log1, dig1, rep1 := run(t.TempDir())
	log2, dig2, _ := run(t.TempDir())
	if !bytes.Equal(log1, log2) {
		t.Fatal("same-seed schedule logs differ with replicas enabled")
	}
	if dig1 != dig2 {
		t.Fatalf("same-seed digests differ: %s vs %s", dig1, dig2)
	}
	if rep1.Invariants.Violations != 0 {
		t.Fatalf("violations: %v", rep1.Invariants.Details)
	}
	if rep1.Replication == nil || rep1.Replication.RoutedReads == 0 {
		t.Fatal("deterministic run routed no replica reads")
	}
	if rep1.Replication.Fallbacks != 0 {
		t.Fatalf("deterministic run fell back %d times", rep1.Replication.Fallbacks)
	}
}

// TestReplayHonorsReplicaHeader replays a replica-enabled log: the
// header carries the replica count, the replay recreates the fleet
// (with its own WAL directory), and the outcome digest matches.
func TestReplayHonorsReplicaHeader(t *testing.T) {
	h, err := New(replicaConfig(t.TempDir(), true))
	if err != nil {
		t.Fatal(err)
	}
	logOrig, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	origDigest := h.check.Digest()
	h.Close()

	log, err := ParseScheduleLog(logOrig.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if log.Replicas != 2 {
		t.Fatalf("parsed header replicas = %d, want 2", log.Replicas)
	}
	cfg, err := ConfigFromLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 2 {
		t.Fatalf("ConfigFromLog replicas = %d, want 2", cfg.Replicas)
	}
	// The header cannot carry a usable WAL path; the replayer supplies
	// a fresh one (as cmd/vdmhtap does).
	cfg.Engine.WALDir = t.TempDir()
	cfg.Engine.WALSync = wal.SyncOff
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := h2.Replay(context.Background(), log); err != nil {
		t.Fatal(err)
	}
	if got := h2.check.Digest(); got != origDigest {
		t.Fatalf("replay digest %s != original %s", got, origDigest)
	}
}

// TestMixDropsReplicaWithoutReplicas: a replica weight without a
// replica fleet is normalized away instead of failing or panicking,
// and a reader-only replica mix degrades to a pinned probe.
func TestMixDropsReplicaWithoutReplicas(t *testing.T) {
	cfg := Config{
		Writers: 1, Readers: 1, Ops: 2, Seed: 1, Scale: 100,
		Mix:    Mix{Insert: 1, Replica: 5},
		Engine: DefaultEngineOptions(),
	}
	norm, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Mix.Replica != 0 {
		t.Fatalf("Mix.Replica = %d after normalize without replicas", norm.Mix.Replica)
	}
	if norm.Mix.Pinned != 1 {
		t.Fatalf("Mix.Pinned = %d, want 1 (reader class must survive)", norm.Mix.Pinned)
	}
	// And with replicas configured the weight survives.
	cfg.Engine.WALDir = t.TempDir()
	cfg.Replicas = 1
	norm, err = cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Mix.Replica != 5 {
		t.Fatalf("Mix.Replica = %d with replicas, want 5", norm.Mix.Replica)
	}
}

// TestReplicasRequireWAL: replicas tail the engine's log, so a run
// that asks for them without a WAL directory is rejected up front.
func TestReplicasRequireWAL(t *testing.T) {
	cfg := replicaConfig("", false)
	if _, err := cfg.normalized(); err == nil || !strings.Contains(err.Error(), "WAL") {
		t.Fatalf("replicas without a WAL directory: err = %v", err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New with replicas but no WAL directory must fail")
	}
}

// TestReplicasRequireReplicaClass: the replica reader class is the
// only op that reads a replica, so replicas under a mix that gives it
// no weight would only tail the log; the run is rejected, naming the
// class.
func TestReplicasRequireReplicaClass(t *testing.T) {
	for _, spec := range []string{"replica=0", "default", "read-heavy"} {
		mix, err := ParseMix(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := replicaConfig(t.TempDir(), false)
		cfg.Mix = mix
		if _, err := cfg.normalized(); err == nil || !strings.Contains(err.Error(), "replica reader class") {
			t.Fatalf("mix %q with replicas: err = %v, want one naming the replica reader class", spec, err)
		}
	}
	if _, err := replicaConfig(t.TempDir(), false).normalized(); err != nil {
		t.Fatalf("replicas with the replica class: %v", err)
	}
}
