package htapbench

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestHTAPSoak is the mixed-workload soak: a duration-bounded
// concurrent run with auto-merge, version GC, and governance all
// active, asserting zero invariant violations and zero goroutine leaks
// after Engine.Close. The default duration keeps ordinary `go test`
// fast; CI sets HTAP_SOAK=30s for the real soak (with -race).
func TestHTAPSoak(t *testing.T) {
	dur := 2 * time.Second
	if s := os.Getenv("HTAP_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad HTAP_SOAK %q: %v", s, err)
		}
		dur = d
	}
	if testing.Short() {
		dur = 500 * time.Millisecond
	}

	before := runtime.NumGoroutine()

	eng := DefaultEngineOptions()
	eng.GCInterval = 10 * time.Millisecond
	eng.MergeThreshold = 512
	eng.StatementTimeout = 5 * time.Second
	eng.MaxConcurrentQueries = 8
	cfg := Config{
		Writers:  4,
		Readers:  4,
		Duration: dur,
		Seed:     1,
		Scale:    8000,
		Engine:   eng,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(context.Background()); err != nil {
		h.Close()
		t.Fatal(err)
	}
	rep := h.Report()
	h.Close()

	if rep.Invariants.Violations != 0 {
		t.Fatalf("soak violations: %v", rep.Invariants.Details)
	}
	if rep.Totals.WriterOps == 0 || rep.Totals.ReaderOps == 0 {
		t.Fatalf("soak made no progress: %+v", rep.Totals)
	}
	if rep.Maintenance.AutoMerges == 0 && rep.Maintenance.Vacuums == 0 {
		t.Fatal("background maintenance never ran during the soak")
	}
	// Background GC compacts a table only once an eighth of its stored
	// versions is reclaimable; the writers' ledger updates and document
	// deletes must carry tables past that line, or GC went unexercised.
	if rep.Maintenance.VacuumedVersions == 0 {
		t.Fatal("the soak's churn never carried a table past the GC amortization line")
	}
	t.Logf("soak: %d writer ops, %d reader ops, %d auto-merges, %d vacuums (%d versions, %d passes deferred), lag p95=%d",
		rep.Totals.WriterOps, rep.Totals.ReaderOps,
		rep.Maintenance.AutoMerges, rep.Maintenance.Vacuums, rep.Maintenance.VacuumedVersions,
		rep.Maintenance.VacuumDeferred, rep.Freshness.P95Lag)

	// Goroutine-leak check: after Close, the count must settle back to
	// (at most) where it started; give the runtime a moment to reap.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before run, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(25 * time.Millisecond)
	}
}
