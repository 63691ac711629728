package replica

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"vdm/internal/storage"
	"vdm/internal/types"
	"vdm/internal/wal"
)

func openPrimary(t *testing.T, dir string) *storage.DB {
	t.Helper()
	db, _, err := storage.OpenDB(dir, wal.Config{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	return db
}

func mkAccounts(t *testing.T, db *storage.DB) *storage.Table {
	t.Helper()
	tbl, err := db.CreateTable("accounts", types.Schema{
		{Name: "id", Type: types.TInt, NotNull: true},
		{Name: "owner", Type: types.TString},
		{Name: "balance", Type: types.TInt},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tbl.AddKey(storage.KeyConstraint{Name: "accounts_pk", Columns: []int{0}, Primary: true}); err != nil {
		t.Fatalf("AddKey: %v", err)
	}
	return tbl
}

func insertAccount(t *testing.T, db *storage.DB, tbl *storage.Table, id int64, owner string, bal int64) {
	t.Helper()
	tx := db.Begin()
	if err := tx.Insert(tbl, types.Row{types.NewInt(id), types.NewString(owner), types.NewInt(bal)}); err != nil {
		t.Fatalf("insert %d: %v", id, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit %d: %v", id, err)
	}
}

// transfer moves amt from account a to account b in one transaction.
func transfer(t *testing.T, db *storage.DB, tbl *storage.Table, a, b, amt int64) {
	t.Helper()
	if a == b {
		return
	}
	snap := tbl.SnapshotAt(db.CurrentTS())
	posA, okA := snap.LookupUnique(0, types.Row{types.NewInt(a)})
	posB, okB := snap.LookupUnique(0, types.Row{types.NewInt(b)})
	if !okA || !okB {
		t.Fatalf("transfer lookup %d->%d", a, b)
	}
	rowA, rowB := snap.Row(posA).Clone(), snap.Row(posB).Clone()
	rowA[2] = types.NewInt(rowA[2].Int() - amt)
	rowB[2] = types.NewInt(rowB[2].Int() + amt)
	tx := db.Begin()
	if err := tx.UpdateAt(snap, posA, rowA); err != nil {
		t.Fatalf("update a: %v", err)
	}
	if err := tx.UpdateAt(snap, posB, rowB); err != nil {
		t.Fatalf("update b: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("transfer commit: %v", err)
	}
}

// pinnedRows renders the rows of a table visible at ts as sorted
// strings — the cross-store comparison unit.
func pinnedRows(t *testing.T, db *storage.DB, name string, ts uint64) []string {
	t.Helper()
	tbl, ok := db.Table(name)
	if !ok {
		t.Fatalf("table %s missing", name)
	}
	snap := tbl.SnapshotAt(ts)
	var out []string
	snap.ForEach(func(r int) bool {
		out = append(out, fmt.Sprint(snap.Row(r)))
		return true
	})
	sort.Strings(out)
	return out
}

func balanceSum(t *testing.T, db *storage.DB, ts uint64) int64 {
	t.Helper()
	tbl, ok := db.Table("accounts")
	if !ok {
		t.Fatal("accounts missing")
	}
	snap := tbl.SnapshotAt(ts)
	var sum int64
	snap.ForEach(func(r int) bool {
		sum += snap.Row(r)[2].Int()
		return true
	})
	return sum
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitCaughtUp polls until the replica's applied timestamp reaches the
// primary's current clock.
func waitCaughtUp(t *testing.T, r *Replica, db *storage.DB) {
	t.Helper()
	target := db.CurrentTS()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := r.Err(); err != nil {
			t.Fatalf("replica failed: %v", err)
		}
		if r.AppliedTS() >= target {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("replica stuck at %d, want %d", r.AppliedTS(), target)
}

// TestReplicaFollowsPrimary is the basic shipping loop: a replica
// opened against a live log converges to the primary's exact state,
// including DDL it has never seen locally.
func TestReplicaFollowsPrimary(t *testing.T) {
	dir := t.TempDir()
	db := openPrimary(t, dir)
	tbl := mkAccounts(t, db)
	for i := int64(1); i <= 8; i++ {
		insertAccount(t, db, tbl, i, fmt.Sprintf("user%d", i), 100)
	}

	set, err := Open(Config{Dir: dir, Replicas: 2, PrimaryTS: db.CurrentTS, Poll: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer set.Close()

	// More history after the replicas attached: transfers plus DDL.
	for i := 0; i < 20; i++ {
		transfer(t, db, tbl, 1+int64(i%8), 1+int64((i+3)%8), 5)
	}
	if _, err := db.CreateTable("audit", types.Schema{{Name: "note", Type: types.TString}}); err != nil {
		t.Fatalf("CreateTable audit: %v", err)
	}

	ts := db.CurrentTS()
	want := pinnedRows(t, db, "accounts", ts)
	for _, r := range set.Replicas() {
		waitCaughtUp(t, r, db)
		rdb := r.DB()
		if got := pinnedRows(t, rdb, "accounts", ts); !equalStrings(got, want) {
			t.Fatalf("replica %d rows:\n got %v\nwant %v", r.ID(), got, want)
		}
		// DDL records carry no commit timestamp (wal.CommitTS returns 0
		// for them), so AppliedTS reaching the primary clock does not
		// imply a trailing CREATE TABLE has been consumed yet — poll for
		// it. Routed engine queries are safe either way: a replica error
		// falls back to the primary.
		ddlDeadline := time.Now().Add(10 * time.Second)
		for {
			if _, ok := r.DB().Table("audit"); ok {
				break
			}
			if time.Now().After(ddlDeadline) {
				t.Fatalf("replica %d missing DDL-shipped table", r.ID())
			}
			time.Sleep(200 * time.Microsecond)
		}
		if sum := balanceSum(t, rdb, ts); sum != 800 {
			t.Fatalf("replica %d conservation: sum %d, want 800", r.ID(), sum)
		}
		if r.Lag() != 0 {
			t.Fatalf("replica %d lag %d after catch-up", r.ID(), r.Lag())
		}
	}
}

// TestReplicaBootstrapsFromCheckpoint attaches a replica only after the
// primary has checkpointed and retired every pre-checkpoint segment:
// the replica must restore the checkpoint, replay the surviving log,
// tail the rest, and end byte-identical to the primary.
func TestReplicaBootstrapsFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openPrimary(t, dir)
	tbl := mkAccounts(t, db)
	for i := int64(1); i <= 10; i++ {
		insertAccount(t, db, tbl, i, fmt.Sprintf("user%d", i), 1000)
	}
	for i := 0; i < 15; i++ {
		transfer(t, db, tbl, 1+int64(i%10), 1+int64((i+7)%10), 50)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint history lives only in the surviving log tail.
	for i := 0; i < 10; i++ {
		transfer(t, db, tbl, 1+int64(i%10), 1+int64((i+3)%10), 25)
	}

	set, err := Open(Config{Dir: dir, Replicas: 1, PrimaryTS: db.CurrentTS, Poll: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("Open after checkpoint: %v", err)
	}
	defer set.Close()
	r := set.Replicas()[0]

	// And history appended after the replica attached.
	for i := 0; i < 10; i++ {
		transfer(t, db, tbl, 1+int64((i+5)%10), 1+int64(i%10), 10)
	}
	waitCaughtUp(t, r, db)

	ts := db.CurrentTS()
	want := pinnedRows(t, db, "accounts", ts)
	rdb := r.DB()
	if got := pinnedRows(t, rdb, "accounts", ts); !equalStrings(got, want) {
		t.Fatalf("replica rows:\n got %v\nwant %v", got, want)
	}
	if sum := balanceSum(t, rdb, ts); sum != 10000 {
		t.Fatalf("conservation: sum %d, want 10000", sum)
	}
	if rdb.CurrentTS() != db.CurrentTS() {
		t.Fatalf("replica clock %d, primary %d", rdb.CurrentTS(), db.CurrentTS())
	}
	// Housekeeping must not change the pinned view.
	for _, name := range rdb.TableNames() {
		if tb, ok := rdb.Table(name); ok {
			if err := tb.MergeDelta(); err != nil {
				t.Fatalf("replica merge: %v", err)
			}
		}
	}
	if _, err := rdb.Vacuum(); err != nil {
		t.Fatalf("replica vacuum: %v", err)
	}
	if got := pinnedRows(t, rdb, "accounts", ts); !equalStrings(got, want) {
		t.Fatalf("replica rows after merge+vacuum:\n got %v\nwant %v", got, want)
	}
}

// TestReplicaRebootstrapsAfterRetiredTail is the self-healing path: two
// primary checkpoints land while the replica is not polling, retiring
// a whole segment it never consumed. The tailer must detect the gap
// (ErrTailTruncated), and the replica must rebuild from the newest
// checkpoint and converge.
func TestReplicaRebootstrapsAfterRetiredTail(t *testing.T) {
	dir := t.TempDir()
	db := openPrimary(t, dir)
	tbl := mkAccounts(t, db)
	for i := int64(1); i <= 4; i++ {
		insertAccount(t, db, tbl, i, fmt.Sprintf("user%d", i), 100)
	}

	// Bootstrap a replica but do NOT start its run loop yet: the dance
	// below happens strictly between polls.
	cfg := Config{Dir: dir, Replicas: 1, PrimaryTS: db.CurrentTS, Poll: 200 * time.Microsecond, MergeEvery: DefaultMergeEvery}
	r := &Replica{id: 0, cfg: &cfg, stop: make(chan struct{}), done: make(chan struct{})}
	if err := r.bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	// Commits into the replica's current segment (readable via its held
	// fd even after retirement) ...
	transfer(t, db, tbl, 1, 2, 10)
	// ... then checkpoint #1: rotates and retires that segment.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	// Commits into the successor segment the replica will never open ...
	transfer(t, db, tbl, 2, 3, 10)
	transfer(t, db, tbl, 3, 4, 10)
	// ... and checkpoint #2 retires that one too: a created-and-retired
	// segment strictly between the replica's position and the live head.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	transfer(t, db, tbl, 4, 1, 10)

	go r.run()
	defer func() {
		close(r.stop)
		<-r.done
		r.shutdown()
	}()
	waitCaughtUp(t, r, db)

	if got := r.Bootstraps(); got < 2 {
		t.Fatalf("bootstraps = %d, want >= 2 (re-bootstrap after retired tail)", got)
	}
	ts := db.CurrentTS()
	want := pinnedRows(t, db, "accounts", ts)
	if got := pinnedRows(t, r.DB(), "accounts", ts); !equalStrings(got, want) {
		t.Fatalf("replica rows after re-bootstrap:\n got %v\nwant %v", got, want)
	}
	if sum := balanceSum(t, r.DB(), ts); sum != 400 {
		t.Fatalf("conservation: sum %d, want 400", sum)
	}
}

// TestReplicaConvergesUnderChurn runs a sustained transfer workload
// with periodic primary checkpoints while a replica tails live, then
// checks exact pinned-state equality and conservation.
func TestReplicaConvergesUnderChurn(t *testing.T) {
	dir := t.TempDir()
	db := openPrimary(t, dir)
	tbl := mkAccounts(t, db)
	for i := int64(1); i <= 6; i++ {
		insertAccount(t, db, tbl, i, fmt.Sprintf("user%d", i), 500)
	}
	set, err := Open(Config{Dir: dir, Replicas: 1, PrimaryTS: db.CurrentTS, Poll: 100 * time.Microsecond, MergeEvery: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer set.Close()
	r := set.Replicas()[0]

	for round := 0; round < 8; round++ {
		for i := 0; i < 25; i++ {
			transfer(t, db, tbl, 1+int64(i%6), 1+int64((i+round)%6+0), 3)
		}
		if round%3 == 2 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint round %d: %v", round, err)
			}
		}
	}
	waitCaughtUp(t, r, db)
	ts := db.CurrentTS()
	want := pinnedRows(t, db, "accounts", ts)
	if got := pinnedRows(t, r.DB(), "accounts", ts); !equalStrings(got, want) {
		t.Fatalf("rows diverged:\n got %v\nwant %v", got, want)
	}
	if sum := balanceSum(t, r.DB(), ts); sum != 3000 {
		t.Fatalf("conservation: sum %d, want 3000", sum)
	}
}

// TestBestSelection exercises the replica choice: healthy-only,
// floor-respecting, freshest-first.
func TestBestSelection(t *testing.T) {
	primary := uint64(100)
	cfg := Config{Dir: "x", Replicas: 3, PrimaryTS: func() uint64 { return primary }}
	set := &Set{cfg: cfg}
	mk := func(id int, applied uint64) *Replica {
		r := &Replica{id: id, cfg: &set.cfg}
		r.appliedTS.Store(applied)
		return r
	}
	r0, r1, r2 := mk(0, 90), mk(1, 97), mk(2, 99)
	set.reps = []*Replica{r0, r1, r2}

	if r, ok := set.Best(0); !ok || r.ID() != 2 {
		t.Fatalf("unbounded Best = %v, want replica 2", r)
	}
	// Floor above every replica: nothing qualifies.
	if _, ok := set.Best(100); ok {
		t.Fatal("Best above all applied TS should fail")
	}
	// Floor between replicas: only fresh-enough ones qualify.
	if r, ok := set.Best(98); !ok || r.ID() != 2 {
		t.Fatalf("floor=98 Best = %v, want replica 2", r)
	}
	// Faulted freshest replica is skipped.
	r2.fail(fmt.Errorf("boom"))
	if r, ok := set.Best(0); !ok || r.ID() != 1 {
		t.Fatalf("Best with faulted r2 = %v, want replica 1", r)
	}
	// Lag computation.
	if lag := r1.Lag(); lag != 3 {
		t.Fatalf("r1 lag = %d, want 3", lag)
	}
}

// TestOpenValidation covers config errors.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Replicas: 1, PrimaryTS: func() uint64 { return 0 }}); err == nil {
		t.Fatal("missing Dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Replicas: 1}); err == nil {
		t.Fatal("missing PrimaryTS accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Replicas: 0, PrimaryTS: func() uint64 { return 0 }}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}
