package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vdm/internal/exec"
)

// holdScans parks every arrival at the scan pause point until release
// is called, the query's context dies, or two seconds pass; the bound
// keeps a statement that wrongly enters execution from hanging the
// test. entered is closed on the first arrival.
func holdScans(e *Engine) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	rel := make(chan struct{})
	var once, relOnce sync.Once
	e.SetExecHooks(&exec.Hooks{OnPoint: func(ctx context.Context, p string) error {
		if p != exec.PointScan {
			return nil
		}
		once.Do(func() { close(entered) })
		select {
		case <-ctx.Done():
		case <-rel:
		case <-time.After(2 * time.Second):
		}
		return nil
	}})
	return entered, func() { relOnce.Do(func() { close(rel) }) }
}

// TestStatementEntryPointsTakeAdmission: with the only execution slot
// held by a query parked at a scan, every statement entry point that
// executes a plan queues for a slot and times out in the queue instead
// of entering execution.
func TestStatementEntryPointsTakeAdmission(t *testing.T) {
	entries := []struct {
		name string
		run  func(e *Engine) error
	}{
		{"ExplainAnalyze", func(e *Engine) error {
			_, err := e.ExplainAnalyze("", `select name from emp`)
			return err
		}},
		{"VerifyCardinalities", func(e *Engine) error {
			_, err := e.VerifyCardinalities("", `select e.name from emp e left outer many to one join dept d on e.dept_id = d.id`)
			return err
		}},
		{"RefreshCache", func(e *Engine) error { return e.RefreshCache("dept_totals") }},
		{"CreateCachedView", func(e *Engine) error { return e.CreateCachedView("emp_names", false) }},
		{"QueryCached", func(e *Engine) error {
			_, err := e.QueryCached("", `select count(*) from dept_totals`)
			return err
		}},
	}
	for _, tc := range entries {
		t.Run(tc.name, func(t *testing.T) {
			e := cacheEngine(t)
			mustExec(t, e, `create view emp_names as select name from emp`)
			if err := e.CreateCachedView("dept_totals", false); err != nil {
				t.Fatal(err)
			}
			e.SetOptions(Options{MaxConcurrentQueries: 1, QueueTimeout: 50 * time.Millisecond})
			entered, release := holdScans(e)
			defer e.SetExecHooks(nil)
			defer release()
			held := make(chan error, 1)
			go func() {
				_, err := e.Query(`select id from dept`)
				held <- err
			}()
			<-entered
			if err := tc.run(e); !errors.Is(err, ErrAdmissionTimeout) {
				t.Errorf("with the only slot held: err = %v, want ErrAdmissionTimeout", err)
			}
			release()
			if err := <-held; err != nil {
				t.Fatalf("held query: %v", err)
			}
			if err := tc.run(e); err != nil {
				t.Fatalf("with the slot free: %v", err)
			}
		})
	}
}

// TestQueryCachedStatementTimeout: QueryCached runs under
// Options.StatementTimeout like any query, and a stale dynamic cache's
// refresh inside it runs in the caller's slot, so it neither deadlocks
// at MaxConcurrentQueries 1 nor outlives the timeout.
func TestQueryCachedStatementTimeout(t *testing.T) {
	e := cacheEngine(t)
	if err := e.CreateCachedView("dept_totals", true); err != nil {
		t.Fatal(err)
	}
	e.SetOptions(Options{MaxConcurrentQueries: 1, StatementTimeout: 50 * time.Millisecond})
	mustExec(t, e, `insert into emp values (30, 'kim', 3, 10.00)`)
	_, release := holdScans(e)
	_, err := e.QueryCached("", `select count(*) from dept_totals`)
	release()
	e.SetExecHooks(nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	res, err := e.QueryCached("", `select count(*) from dept_totals`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("after the refresh: %v groups, want 3", res.Rows[0][0])
	}
}
