package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdm/internal/engine"
	"vdm/internal/exec"
)

// Query lifecycle governance battery: every pause point, at the default
// batch size and at a tiny one, pinned by a test hook and then
// cancelled, timed out, or panicked — asserting typed errors, prompt
// unwinding, zero goroutine leaks, and that the engine stays fully
// usable afterwards. Run with -race: the cancellation paths cross the
// caller's goroutine and the hook's.

// govPoints maps each executor pause point to a query that reaches it
// on the TPC-H fixture. The pin holds the query at the point's arrival
// with that index (0: the first); hash_build_nested holds a join over a
// join at its second build, the nested one, which starts inside the
// outer join's Open.
var govPoints = []struct {
	name    string
	point   string
	arrival int
	query   string
}{
	{exec.PointScan, exec.PointScan, 0, `select o_orderkey, o_totalprice from orders`},
	{exec.PointHashBuild, exec.PointHashBuild, 0, `select o.o_orderkey, c.c_name from orders o inner join customer c on o.o_custkey = c.c_custkey`},
	{"hash_build_nested", exec.PointHashBuild, 1, `select o.o_orderkey, c.c_name, l.l_linenumber from lineitem l
		inner join orders o on l.l_orderkey = o.o_orderkey inner join customer c on o.o_custkey = c.c_custkey`},
	{exec.PointGroupMerge, exec.PointGroupMerge, 0, `select o_orderstatus, count(*) from orders group by o_orderstatus`},
	{exec.PointTopK, exec.PointTopK, 0, `select o_orderkey from orders order by o_totalprice desc limit 5`},
	{exec.PointSort, exec.PointSort, 0, `select o_orderkey from orders order by o_totalprice desc`},
}

func govModes() []struct {
	name string
	opts engine.Options
} {
	return []struct {
		name string
		opts engine.Options
	}{
		{"serial", engine.Options{}},
		{"batch7", engine.Options{BatchSize: 7}},
	}
}

// pin installs hooks that block the first arrival at the given point
// until the query's context dies or release is closed. It returns the
// channel closed on first arrival and the release closer.
func pin(e *engine.Engine, point string) (entered chan struct{}, release func()) {
	return pinAt(e, point, 0)
}

// pinAt is pin for the arrival with the given index: earlier arrivals
// at the point pass.
func pinAt(e *engine.Engine, point string, arrival int) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	rel := make(chan struct{})
	var once sync.Once
	var arrivals atomic.Int32
	e.SetExecHooks(&exec.Hooks{OnPoint: func(ctx context.Context, p string) error {
		if p != point || int(arrivals.Add(1))-1 < arrival {
			return nil
		}
		once.Do(func() { close(entered) })
		select {
		case <-ctx.Done():
		case <-rel:
		}
		return nil
	}})
	var relOnce sync.Once
	return entered, func() { relOnce.Do(func() { close(rel) }) }
}

// waitGoroutines waits for the goroutine count to return to (near) the
// baseline, failing the test if workers leaked.
func waitGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutine leak: %d running, baseline %d", label, n, base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verifyHealthy asserts the engine still answers correctly after a
// governance kill.
func verifyHealthy(t *testing.T, e *engine.Engine, label string) {
	t.Helper()
	res, err := e.Query(`select count(*) from orders where o_orderkey >= 0`)
	if err != nil {
		t.Fatalf("%s: engine unhealthy after kill: %v", label, err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() <= 0 {
		t.Fatalf("%s: bad post-kill result: %+v", label, res.Rows)
	}
}

func TestGovernanceCancelAtEveryPausePoint(t *testing.T) {
	e := equivEngine(t)
	for _, mode := range govModes() {
		e.SetOptions(mode.opts)
		for _, pp := range govPoints {
			label := mode.name + "/" + pp.name
			t.Run(label, func(t *testing.T) {
				base := runtime.NumGoroutine()
				entered, release := pinAt(e, pp.point, pp.arrival)
				defer func() {
					release()
					e.SetExecHooks(nil)
				}()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errCh := make(chan error, 1)
				go func() {
					_, err := e.QueryContext(ctx, pp.query)
					errCh <- err
				}()
				select {
				case <-entered:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: query never reached pause point", label)
				}
				start := time.Now()
				cancel()
				var err error
				select {
				case err = <-errCh:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: cancelled query never returned", label)
				}
				if d := time.Since(start); d > 50*time.Millisecond {
					t.Errorf("%s: cancellation took %v, want <= 50ms", label, d)
				}
				if !errors.Is(err, engine.ErrCancelled) {
					t.Fatalf("%s: want ErrCancelled, got %v", label, err)
				}
				release()
				e.SetExecHooks(nil)
				// The extra goroutine running the query has sent its error,
				// so baseline+0 is reachable once it exits.
				waitGoroutines(t, label, base)
				verifyHealthy(t, e, label)
			})
		}
	}
	if v := metricValue(t, e, "engine.cancelled"); v < int64(len(govPoints)*len(govModes())) {
		t.Errorf("engine.cancelled = %d, want >= %d", v, len(govPoints)*len(govModes()))
	}
}

func TestGovernanceStatementTimeout(t *testing.T) {
	e := equivEngine(t)
	for _, mode := range govModes() {
		opts := mode.opts
		opts.StatementTimeout = 30 * time.Millisecond
		e.SetOptions(opts)
		t.Run(mode.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			entered, release := pin(e, exec.PointScan)
			defer func() {
				release()
				e.SetExecHooks(nil)
			}()
			errCh := make(chan error, 1)
			go func() {
				_, err := e.Query(`select o_orderkey from orders`)
				errCh <- err
			}()
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("query never reached pause point")
			}
			var err error
			select {
			case err = <-errCh:
			case <-time.After(5 * time.Second):
				t.Fatal("timed-out query never returned")
			}
			if !errors.Is(err, engine.ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("timeout error should wrap context.DeadlineExceeded, got %v", err)
			}
			release()
			e.SetExecHooks(nil)
			waitGoroutines(t, mode.name, base)
			e.SetOptions(mode.opts) // drop the timeout before the health check
			verifyHealthy(t, e, mode.name)
		})
	}
	if v := metricValue(t, e, "engine.timeouts"); v < 2 {
		t.Errorf("engine.timeouts = %d, want >= 2", v)
	}
}

func TestGovernanceMemoryBudget(t *testing.T) {
	e := equivEngine(t)
	for _, mode := range govModes() {
		opts := mode.opts
		opts.MemoryBudget = 256 << 10
		e.SetOptions(opts)
		t.Run(mode.name, func(t *testing.T) {
			// The oversized query and an in-budget query run concurrently:
			// budgets are per query, so the small one must not be starved
			// or killed by its neighbour blowing up.
			bigErr := make(chan error, 1)
			go func() {
				_, err := e.Query(`select a.l_orderkey, b.l_orderkey from lineitem a cross join lineitem b`)
				bigErr <- err
			}()
			smallErr := make(chan error, 1)
			go func() {
				_, err := e.Query(`select count(*) from orders`)
				smallErr <- err
			}()
			if err := <-smallErr; err != nil {
				t.Fatalf("in-budget query failed: %v", err)
			}
			err := <-bigErr
			if !errors.Is(err, engine.ErrMemoryBudget) {
				t.Fatalf("want ErrMemoryBudget, got %v", err)
			}
			verifyHealthy(t, e, mode.name)
		})
	}
	if v := metricValue(t, e, "engine.mem_budget_kills"); v < 2 {
		t.Errorf("engine.mem_budget_kills = %d, want >= 2", v)
	}
	if v := metricValue(t, e, "exec.peak_query_bytes"); v <= 0 {
		t.Errorf("exec.peak_query_bytes = %d, want > 0", v)
	}
}

func TestGovernancePanicIsolation(t *testing.T) {
	e := equivEngine(t)
	cases := []struct {
		name  string
		opts  engine.Options
		point string
		query string
	}{
		{"serial-hash-build", engine.Options{}, exec.PointHashBuild,
			`select o.o_orderkey, c.c_name from orders o inner join customer c on o.o_custkey = c.c_custkey`},
		{"batch7-scan", engine.Options{BatchSize: 7}, exec.PointScan,
			`select o_orderkey from orders`},
	}
	for _, tc := range cases {
		e.SetOptions(tc.opts)
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			point := tc.point
			e.SetExecHooks(&exec.Hooks{OnPoint: func(ctx context.Context, p string) error {
				if p == point {
					panic("governance test: injected fault at " + p)
				}
				return nil
			}})
			defer e.SetExecHooks(nil)
			before := metricValue(t, e, "engine.panics_recovered")
			_, err := e.Query(tc.query)
			if !errors.Is(err, engine.ErrInternal) {
				t.Fatalf("want ErrInternal, got %v", err)
			}
			if !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("panic message lost: %v", err)
			}
			if after := metricValue(t, e, "engine.panics_recovered"); after != before+1 {
				t.Fatalf("engine.panics_recovered = %d, want %d", after, before+1)
			}
			e.SetExecHooks(nil)
			waitGoroutines(t, tc.name, base)
			verifyHealthy(t, e, tc.name)
		})
	}
}

func TestGovernanceAdmissionControl(t *testing.T) {
	e := equivEngine(t)
	e.SetOptions(engine.Options{
		MaxConcurrentQueries: 1,
		QueueTimeout:         50 * time.Millisecond,
	})
	entered, release := pin(e, exec.PointScan)
	defer func() {
		release()
		e.SetExecHooks(nil)
	}()

	// q1 takes the only slot and parks at the scan pause point.
	q1Err := make(chan error, 1)
	go func() {
		_, err := e.Query(`select o_orderkey from orders`)
		q1Err <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("q1 never reached pause point")
	}

	// q2 queues behind it and must be rejected with the typed error
	// when QueueTimeout expires.
	_, err := e.Query(`select count(*) from customer`)
	if !errors.Is(err, engine.ErrAdmissionTimeout) {
		t.Fatalf("want ErrAdmissionTimeout, got %v", err)
	}
	if v := metricValue(t, e, "engine.admission_waits"); v < 1 {
		t.Errorf("engine.admission_waits = %d, want >= 1", v)
	}
	if v := metricValue(t, e, "engine.admission_rejects"); v < 1 {
		t.Errorf("engine.admission_rejects = %d, want >= 1", v)
	}

	// Releasing q1 frees the slot; it finishes cleanly and the next
	// query admits immediately.
	release()
	if err := <-q1Err; err != nil {
		t.Fatalf("q1 failed: %v", err)
	}
	e.SetExecHooks(nil)
	verifyHealthy(t, e, "post-admission")
}

// TestGovernanceCancelDuringVacuum pins a query mid-scan, runs a vacuum
// pass concurrently (exercising the read-lease / governance interplay),
// then cancels the query: the vacuum must finish, the cancel must be
// typed and prompt, and no goroutine may leak.
func TestGovernanceCancelDuringVacuum(t *testing.T) {
	e := equivEngine(t)
	e.SetOptions(engine.Options{BatchSize: 7})
	// Create dead versions for the vacuum to chew on.
	if err := e.Exec(`create table churn_gov (id bigint primary key)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.Exec(fmt.Sprintf("insert into churn_gov values (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Exec(`delete from churn_gov where id < 40`); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	entered, release := pin(e, exec.PointScan)
	defer func() {
		release()
		e.SetExecHooks(nil)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(ctx, `select o_orderkey from orders`)
		errCh <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached pause point")
	}
	// Vacuum runs while the reader is pinned; its read-lease watermark
	// protects the pinned snapshot, so this must not block or corrupt.
	if _, err := e.DB().Vacuum(); err != nil {
		t.Fatalf("concurrent vacuum: %v", err)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, engine.ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query never returned")
	}
	release()
	e.SetExecHooks(nil)
	waitGoroutines(t, "vacuum-concurrent", base)
	verifyHealthy(t, e, "vacuum-concurrent")
}
