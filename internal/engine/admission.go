package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vdm/internal/exec"
)

// Typed query-lifecycle errors, re-exported from exec so callers can
// errors.Is-match at the engine (and vdm facade) level without
// importing internal/exec.
var (
	// ErrCancelled reports that the query's context was cancelled.
	ErrCancelled = exec.ErrCancelled
	// ErrTimeout reports that Options.StatementTimeout (or a context
	// deadline) expired.
	ErrTimeout = exec.ErrTimeout
	// ErrMemoryBudget reports that the query exceeded
	// Options.MemoryBudget.
	ErrMemoryBudget = exec.ErrMemoryBudget
	// ErrInternal reports a panic recovered at the query boundary; the
	// engine stays healthy.
	ErrInternal = exec.ErrInternal
	// ErrAdmissionTimeout reports that the query waited longer than
	// Options.QueueTimeout for an execution slot.
	ErrAdmissionTimeout = errors.New("engine: admission queue timeout")
)

// newAdmitGate builds the admission gate for the given options: a
// buffered channel holding one token per running query, nil when
// concurrency is unlimited.
func newAdmitGate(o Options) chan struct{} {
	if o.MaxConcurrentQueries <= 0 {
		return nil
	}
	return make(chan struct{}, o.MaxConcurrentQueries)
}

// admitQuery acquires an execution slot, degrading under overload from
// immediate admission to FIFO queueing (blocked senders on a channel
// queue in order) and finally to a typed ErrAdmissionTimeout when
// Options.QueueTimeout expires first. The returned release function
// must be called exactly once; it is tied to the gate the query
// entered, so a concurrent SetOptions swapping the gate cannot strand
// tokens.
func (e *Engine) admitQuery(ctx context.Context) (release func(), err error) {
	gate := e.admit
	if gate == nil {
		return func() {}, nil
	}
	release = func() { <-gate }
	select {
	case gate <- struct{}{}:
		return release, nil
	default:
	}
	e.metrics.admissionWaits.Inc()
	var expired <-chan time.Time
	if qt := e.opts.QueueTimeout; qt > 0 {
		t := time.NewTimer(qt)
		defer t.Stop()
		expired = t.C
	}
	select {
	case gate <- struct{}{}:
		return release, nil
	case <-expired:
		e.metrics.admissionRejects.Inc()
		return nil, fmt.Errorf("%w after %v", ErrAdmissionTimeout, e.opts.QueueTimeout)
	case <-ctx.Done():
		return nil, exec.ContextErr(ctx)
	}
}

// statementContext derives the query's context: the caller's ctx
// bounded by Options.StatementTimeout when one is set. The returned
// cancel must always be called to release the timer.
func (e *Engine) statementContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if t := e.opts.StatementTimeout; t > 0 {
		return context.WithTimeout(ctx, t)
	}
	return context.WithCancel(ctx)
}
