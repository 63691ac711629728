package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vdm/internal/replica"
)

// waitReplicasCaughtUp polls until every replica's applied timestamp
// reaches the primary's current clock.
func waitReplicasCaughtUp(t *testing.T, e *Engine, set *replica.Set) {
	t.Helper()
	target := e.DB().CurrentTS()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range set.Replicas() {
			if err := r.Err(); err != nil {
				t.Fatalf("replica %d failed: %v", r.ID(), err)
			}
			if r.AppliedTS() < target {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("replicas did not reach ts %d", target)
}

// TestQueryOnReplicaMatchesPinnedPrimary is the engine half of the
// replica-consistency oracle: the same pinned timestamp yields row-
// and order-identical results on the primary and on a replica store,
// before and after replica-side housekeeping.
func TestQueryOnReplicaMatchesPinnedPrimary(t *testing.T) {
	dir := t.TempDir()
	e := openDurableEngine(t, dir, Options{})
	defer e.Close()
	set, err := replica.Open(replica.Config{Dir: dir, Replicas: 1, PrimaryTS: e.DB().CurrentTS})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	mustExec(t, e, "CREATE TABLE items (id INT PRIMARY KEY, grp TEXT, qty INT)")
	for i := 1; i <= 40; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO items VALUES (%d, 'g%d', %d)", i, i%5, i*3))
	}
	// Pin the primary first: its lease holds the watermark at or below
	// every timestamp the replica can be pinned at afterwards.
	please := e.DB().AcquireRead()
	defer please.Release()
	waitReplicasCaughtUp(t, e, set)
	rep := set.Replicas()[0]
	rdb := rep.DB()
	rlease := rdb.AcquireRead()
	defer rlease.Release()
	w := rlease.TS()

	const q = "SELECT grp, SUM(qty) AS s, COUNT(*) AS n FROM items GROUP BY grp ORDER BY grp, s"
	prim, err := e.QueryPinned(context.Background(), w, q)
	if err != nil {
		t.Fatalf("QueryPinned: %v", err)
	}
	got, err := e.QueryOnReplica(context.Background(), rdb, w, q)
	if err != nil {
		t.Fatalf("QueryOnReplica: %v", err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(prim.Rows) {
		t.Fatalf("replica result diverged:\n got %v\nwant %v", got.Rows, prim.Rows)
	}
	// Merge + vacuum the replica store and re-check the same pin.
	for _, name := range rdb.TableNames() {
		if tb, ok := rdb.Table(name); ok {
			if err := tb.MergeDelta(); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
	}
	if _, err := rdb.Vacuum(); err != nil {
		t.Fatalf("vacuum: %v", err)
	}
	got2, err := e.QueryOnReplica(context.Background(), rdb, w, q)
	if err != nil {
		t.Fatalf("QueryOnReplica after housekeeping: %v", err)
	}
	if fmt.Sprint(got2.Rows) != fmt.Sprint(prim.Rows) {
		t.Fatalf("replica pin unstable across merge+vacuum:\n got %v\nwant %v", got2.Rows, prim.Rows)
	}
}

// TestFailedQueriesReleaseLeases fails one query at every stage of the
// query path — parse, admission, planning, execution — and proves no
// read lease leaks: after a subsequent commit the storage watermark
// reaches the clock, which is impossible with a stranded lease.
func TestFailedQueriesReleaseLeases(t *testing.T) {
	e := openDurableEngine(t, t.TempDir(), Options{})
	defer e.Close()
	mustExec(t, e,
		"CREATE TABLE t (id INT PRIMARY KEY, v INT)",
		"INSERT INTO t VALUES (1, 1), (2, 2)",
	)
	db := e.DB()

	assertNoLeak := func(stage string) {
		t.Helper()
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", int(db.CurrentTS())+100))
		if wm, ts := db.Watermark(), db.CurrentTS(); wm != ts {
			t.Fatalf("%s: watermark %d stuck below clock %d: leaked lease", stage, wm, ts)
		}
	}

	// Parse failure.
	if _, err := e.Query("SELEKT nonsense"); err == nil {
		t.Fatal("parse must fail")
	}
	assertNoLeak("parse")

	// Admission failure: a context cancelled before the query starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, "SELECT * FROM t"); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled admission error = %v", err)
	}
	assertNoLeak("admission")

	// Planning failure: unknown column.
	if _, err := e.Query("SELECT nope FROM t"); err == nil {
		t.Fatal("planning must fail")
	}
	assertNoLeak("plan")

	// Execution failure: a memory budget the cross join cannot fit in.
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES (1000, 0)")
	for i := 1001; i < 1200; i++ {
		fmt.Fprintf(&ins, ", (%d, %d)", i, i)
	}
	mustExec(t, e, ins.String())
	o := e.Options()
	o.MemoryBudget = 1024
	e.SetOptions(o)
	if _, err := e.Query("SELECT a.id, b.id FROM t a CROSS JOIN t b ORDER BY a.id"); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget error = %v", err)
	}
	o.MemoryBudget = 0
	e.SetOptions(o)
	assertNoLeak("exec")

	// Pinned-path failures with a caller-held lease, released after.
	lease := db.AcquireRead()
	if _, err := e.QueryPinned(context.Background(), lease.TS(), "SELECT nope FROM t"); err == nil {
		t.Fatal("pinned planning must fail")
	}
	if _, err := e.QueryPinned(context.Background(), lease.TS(), "INSERT INTO t VALUES (9,9)"); err == nil {
		t.Fatal("pinned non-query must fail")
	}
	lease.Release()
	assertNoLeak("pinned")
}
