package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"vdm/internal/bind"
	"vdm/internal/core"
	"vdm/internal/exec"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Query parses, binds, optimizes (under the active profile), and
// executes a query, without a session user.
func (e *Engine) Query(sqlText string) (*Result, error) {
	return e.QueryAs("", sqlText)
}

// QueryContext is Query with a caller-supplied context: cancelling ctx
// aborts the query promptly (binder/optimizer checkpoints, per-batch
// executor checks) with the typed ErrCancelled;
// a ctx deadline surfaces as ErrTimeout.
func (e *Engine) QueryContext(ctx context.Context, sqlText string) (*Result, error) {
	return e.QueryAsContext(ctx, "", sqlText)
}

// QueryAs runs a query as the given user: DAC policies on the views it
// touches are injected with CURRENT_USER() bound to user.
func (e *Engine) QueryAs(user, sqlText string) (*Result, error) {
	return e.QueryAsContext(context.Background(), user, sqlText)
}

// QueryAsContext is QueryAs with a caller-supplied context (see
// QueryContext).
func (e *Engine) QueryAsContext(ctx context.Context, user, sqlText string) (*Result, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *sql.Query:
		return e.queryStatement(ctx, user, st)
	case *sql.Explain:
		p, _, err := e.planPinned(ctx, user, st.Body, !st.Raw)
		if err != nil {
			return nil, err
		}
		var rows []types.Row
		text := e.formatWithEstimates(p) + plan.CollectStats(p.Root).String()
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			rows = append(rows, types.Row{types.NewString(line)})
		}
		return &Result{Columns: []string{"plan"}, Rows: rows}, nil
	}
	return nil, fmt.Errorf("engine: not a query")
}

func (e *Engine) queryStatement(ctx context.Context, user string, q *sql.Query) (*Result, error) {
	ctx, end, err := e.beginStatement(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	p, builds, err := e.planStatement(ctx, user, q)
	if err != nil {
		// Planning failures count as failed queries so the error rate
		// reflects what callers observe, not just execution faults.
		return nil, e.metrics.failFast(err)
	}
	lease := e.db.AcquireRead()
	defer lease.Release()
	return e.runAt(ctx, p, e.db, lease.TS(), builds)
}

// planStatement plans a query, going through the plan cache when one is
// enabled: the statement's fingerprint finds its shape's templates, and
// the plan is planned only when no template accepts its literals. It
// also returns the hash builds the cached variant's executions share
// (nil when the plan is not cached).
func (e *Engine) planStatement(ctx context.Context, user string, q *sql.Query) (*plan.Plan, *exec.BuildStore, error) {
	if e.plans == nil {
		p, _, err := e.planPinned(ctx, user, q.Body, true)
		return p, nil, err
	}
	fp, vals := sql.Fingerprint(q.Body)
	key := user + "\x00" + e.profile.Name + "\x00" + fp
	ep := e.cacheEpoch()
	if v, ok := e.plans.get(key, vals, ep); ok {
		p := v.instance(vals)
		if p != v.plan {
			e.plans.templateHits.Inc()
			if planCacheAudit {
				e.auditInstance(user, v, q.Body, vals)
			}
		}
		return p, v.builds, nil
	}
	p, pinned, err := e.planPinned(ctx, user, q.Body, true)
	if err != nil {
		return nil, nil, err
	}
	v := &variant{key: key, plan: p, vals: vals, pinned: pinned, builds: exec.NewBuildStore(&e.metrics.exec)}
	if planCacheAudit {
		v.body = q.Body
	}
	if !e.plans.put(v, ep, e.cacheEpoch()) {
		return p, nil, nil
	}
	return p, v.builds, nil
}

// PlanQuery binds a query and, if optimize is set, rewrites it under the
// active profile. The returned plan can be inspected, printed, or
// executed with Run.
func (e *Engine) PlanQuery(user, sqlText string, optimize bool) (*plan.Plan, error) {
	body, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	p, _, err := e.planPinned(context.Background(), user, body, optimize)
	return p, err
}

// planPinned binds a query, optimizes it if optimize is set, and returns
// the lifted-literal slots the optimizer pinned.
func (e *Engine) planPinned(ctx context.Context, user string, body sql.QueryExpr, optimize bool) (*plan.Plan, []int, error) {
	// Checkpoints before the two planning phases: binding and optimizing
	// are pure CPU, so these are the only places a dead context can stop
	// a pathological plan before execution starts.
	if err := ctx.Err(); err != nil {
		return nil, nil, exec.ContextErr(ctx)
	}
	p, err := bind.New(e.cat, user).BindQuery(body)
	if err != nil || !optimize {
		return p, nil, err
	}
	opt, err := e.optimize(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	return p, opt.Pinned(), nil
}

// optimize rewrites a bound plan in place under the active profile and
// returns the optimizer, which holds the literal slots it pinned and
// its trace.
func (e *Engine) optimize(ctx context.Context, p *plan.Plan) (*core.Optimizer, error) {
	if err := ctx.Err(); err != nil {
		return nil, exec.ContextErr(ctx)
	}
	opt := core.NewOptimizer(p.Ctx, e.profile)
	opt.SetCosting(e.costing)
	p.Root = opt.Optimize(p.Root)
	p.Est = opt.Estimates()
	return opt, nil
}

// Run executes a plan against the current committed snapshot.
func (e *Engine) Run(p *plan.Plan) (*Result, error) {
	return e.run(context.Background(), p)
}

// QueryPinned runs a query against the snapshot at commit timestamp ts
// instead of the latest one. The caller must hold a read lease pinning
// ts (storage.DB.AcquireRead) for the whole call, so version GC cannot
// reclaim row versions the query reads. Statement timeouts, admission,
// memory budgets, metrics, and the plan cache all apply exactly as for
// QueryContext. This is the repeatable-read primitive the HTAP harness
// builds its snapshot-consistency oracle on: the same ts must yield
// row- and order-identical results before, during, and after delta
// merges and vacuums.
func (e *Engine) QueryPinned(ctx context.Context, ts uint64, sqlText string) (*Result, error) {
	return e.queryAt(ctx, e.db, ts, sqlText)
}

// QueryOnReplica runs a query pinned at commit timestamp ts against a
// replica store the caller holds (a replica.Replica's DB — capture it
// once and lease it for the whole call, exactly as QueryPinned requires
// on the primary). It is the harness-facing primitive behind the
// replica-consistency oracle: the same ts on primary and replica must
// yield row- and order-identical results. Planning, admission,
// timeouts, budgets, and metrics apply as for QueryPinned.
func (e *Engine) QueryOnReplica(ctx context.Context, rdb *storage.DB, ts uint64, sqlText string) (*Result, error) {
	return e.queryAt(ctx, rdb, ts, sqlText)
}

// queryAt parses, plans, and runs a query against db's snapshot at ts
// under the statement's timeout and admission: the body of QueryPinned
// (db = the primary) and QueryOnReplica.
func (e *Engine) queryAt(ctx context.Context, db *storage.DB, ts uint64, sqlText string) (*Result, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	q, ok := st.(*sql.Query)
	if !ok {
		return nil, fmt.Errorf("engine: a pinned read requires a query, got %T", st)
	}
	ctx, end, err := e.beginStatement(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	p, builds, err := e.planStatement(ctx, "", q)
	if err != nil {
		return nil, e.metrics.failFast(err)
	}
	return e.runAt(ctx, p, db, ts, builds)
}

func (e *Engine) run(ctx context.Context, p *plan.Plan) (*Result, error) {
	// The read lease pins the query's snapshot timestamp in the DB's
	// watermark, so background version GC cannot reclaim row versions
	// this query can still see, however long it runs.
	lease := e.db.AcquireRead()
	defer lease.Release()
	return e.runAt(ctx, p, e.db, lease.TS(), nil)
}

// runAt executes a plan against db's snapshot at ts — db is the
// primary or a replica store; plans are built from catalog names, so a
// primary-planned query executes against any store that has applied
// the same history. The caller holds the lease on db pinning ts. The
// plan's hash joins share builds through builds (nil: none) when db is
// the primary: a replica's tables are not the ones builds recorded.
func (e *Engine) runAt(ctx context.Context, p *plan.Plan, db *storage.DB, ts uint64, builds *exec.BuildStore) (res *Result, err error) {
	start := time.Now()
	builder, gov := e.newBuilder(ctx, p, db, ts)
	if db == e.db && !e.noBuildReuse {
		builder.SetBuildStore(builds)
	}
	// A malformed plan or value-model misuse must surface as an error,
	// never crash the engine.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrInternal, r)
		}
		m := e.metrics
		m.queries.Inc()
		m.queryLatency.Observe(time.Since(start).Nanoseconds())
		m.exec.PeakQueryBytes.Max(gov.PeakBytes())
		if err != nil {
			m.queryErrors.Inc()
			m.classify(err)
		} else if res != nil {
			m.rowsReturned.Add(int64(len(res.Rows)))
		}
	}()
	rows, err := builder.Run(p.Root)
	if err != nil {
		return nil, err
	}
	// Trim rows to the named output columns (hidden sort columns etc.
	// are stripped by the binder; this is belt and braces).
	n := len(p.OutNames)
	for i, r := range rows {
		if len(r) > n {
			rows[i] = r[:n]
		}
	}
	return &Result{Columns: p.OutNames, Rows: rows}, nil
}

// ExplainAnalyze plans, executes, and renders the optimized plan with
// per-operator actuals appended to each line: rows produced, Next()
// calls, inclusive wall time, and hash-build rows/bytes for blocking
// operators; q_err compares the estimate with the rows of operators that
// ran to the end of their stream (OpStats.Drained) only. The query runs
// to completion under instrumentation; the result rows are discarded.
func (e *Engine) ExplainAnalyze(user, sqlText string) (string, error) {
	ctx, end, err := e.beginStatement(context.Background())
	if err != nil {
		return "", err
	}
	defer end()
	p, err := e.PlanQuery(user, sqlText, true)
	if err != nil {
		return "", err
	}
	lease := e.db.AcquireRead()
	defer lease.Release()
	builder, _ := e.newBuilder(ctx, p, e.db, lease.TS())
	builder.EnableAnalyze()
	if _, err := builder.Run(p.Root); err != nil {
		return "", err
	}
	return plan.FormatAnnotated(p.Ctx, p.Root, func(n plan.Node) string {
		st := builder.NodeStats(n)
		est, hasEst := 0.0, false
		if p.Est != nil {
			est, hasEst = p.Est[n]
		}
		var note string
		switch {
		case st != nil && hasEst && st.Drained:
			note = fmt.Sprintf("%s est_rows=%.0f q_err=%.2f", st, est, qerror(est, float64(st.Rows)))
		case st != nil && hasEst:
			// Stopped early or never counted: its rows are no cardinality.
			note = fmt.Sprintf("%s est_rows=%.0f", st, est)
		case st != nil:
			note = st.String()
		case hasEst:
			note = fmt.Sprintf("est_rows=%.0f", est)
		}
		return note
	}), nil
}

// TraceQuery binds and optimizes the query under the active profile and
// returns the optimizer's structured trace: which rules fired (with
// matched operators and join-count deltas), which the profile skipped,
// and the before/after plan censuses. The query is not executed.
func (e *Engine) TraceQuery(user, sqlText string) (*core.Trace, error) {
	p, err := e.PlanQuery(user, sqlText, false)
	if err != nil {
		return nil, err
	}
	opt, err := e.optimize(context.Background(), p)
	if err != nil {
		return nil, err
	}
	return opt.Report(), nil
}

// Explain returns the optimized plan of a query as indented text, each
// operator annotated with the optimizer's row estimate (est_rows=) when
// cost-based planning ran.
func (e *Engine) Explain(user, sqlText string) (string, error) {
	p, err := e.PlanQuery(user, sqlText, true)
	if err != nil {
		return "", err
	}
	return e.formatWithEstimates(p), nil
}

// formatWithEstimates renders a plan with est_rows= annotations from
// the optimizer's estimate map (when costing ran).
func (e *Engine) formatWithEstimates(p *plan.Plan) string {
	return plan.FormatAnnotated(p.Ctx, p.Root, func(n plan.Node) string {
		if v, ok := p.Est[n]; ok {
			return fmt.Sprintf("est_rows=%.0f", v)
		}
		return ""
	})
}

// qerror is the symmetric relative error between an estimated and an
// actual row count: max(e/a, a/e) with both clamped to at least one
// row. 1.0 is a perfect estimate; the conventional quality bar for
// unfiltered scans and key joins is q <= 2.
func qerror(est, actual float64) float64 {
	e := math.Max(est, 1)
	a := math.Max(actual, 1)
	return math.Max(e/a, a/e)
}

// ExplainRaw returns the bound (unoptimized) plan of a query.
func (e *Engine) ExplainRaw(user, sqlText string) (string, error) {
	p, err := e.PlanQuery(user, sqlText, false)
	if err != nil {
		return "", err
	}
	return plan.Format(p.Ctx, p.Root), nil
}

// PlanStats returns the operator census of the query's plan, optimized
// or raw — the measure behind the paper's Figures 3 and 4.
func (e *Engine) PlanStats(user, sqlText string, optimize bool) (plan.Stats, error) {
	p, err := e.PlanQuery(user, sqlText, optimize)
	if err != nil {
		return plan.Stats{}, err
	}
	return plan.CollectStats(p.Root), nil
}

// --- §7.3 cardinality verification -------------------------------------

// CardinalityViolation reports a join whose declared cardinality
// specification does not hold on the current data.
type CardinalityViolation struct {
	// Join describes the offending join (kind, spec, condition).
	Join string
	// Detail explains which bound failed and by how much.
	Detail string
}

// VerifyCardinalities checks every cardinality-specified join of the
// query against the actual data, the safety tool the paper describes
// for applications that declare cardinalities instead of maintaining
// uniqueness constraints (§7.3).
func (e *Engine) VerifyCardinalities(user, sqlText string) ([]CardinalityViolation, error) {
	// Every join is checked at one snapshot of the primary, in an
	// admission slot, like an executed query.
	ctx, end, err := e.beginStatement(context.Background())
	if err != nil {
		return nil, err
	}
	defer end()
	p, err := e.PlanQuery(user, sqlText, false)
	if err != nil {
		return nil, err
	}
	lease := e.db.AcquireRead()
	defer lease.Release()
	builder, _ := e.newBuilder(ctx, p, e.db, lease.TS())
	var out []CardinalityViolation
	var verify func(n plan.Node) error
	verify = func(n plan.Node) error {
		for _, c := range n.Inputs() {
			if err := verify(c); err != nil {
				return err
			}
		}
		j, ok := n.(*plan.Join)
		if !ok || !j.Card.Specified() {
			return nil
		}
		v, err := checkJoinCardinality(builder, p.Ctx, j)
		if err != nil {
			return err
		}
		out = append(out, v...)
		return nil
	}
	if err := verify(p.Root); err != nil {
		return nil, err
	}
	return out, nil
}

func checkJoinCardinality(builder *exec.Builder, ctx *plan.Context, j *plan.Join) ([]CardinalityViolation, error) {
	leftRows, err := builder.Run(j.Left)
	if err != nil {
		return nil, err
	}
	rightRows, err := builder.Run(j.Right)
	if err != nil {
		return nil, err
	}
	// Extract equi-key evaluators.
	leftCols := plan.ColumnsOf(j.Left)
	rightCols := plan.ColumnsOf(j.Right)
	leftSlots := slotMap(j.Left.Columns())
	rightSlots := slotMap(j.Right.Columns())
	var leftKeys, rightKeys []exec.EvalFn
	for _, conj := range plan.Conjuncts(j.Cond) {
		eq, ok := conj.(*plan.Bin)
		if !ok || eq.Op != "=" {
			continue
		}
		lu, ru := plan.ColsUsed(eq.L), plan.ColsUsed(eq.R)
		le, re := eq.L, eq.R
		if lu.SubsetOf(rightCols) && ru.SubsetOf(leftCols) {
			le, re = eq.R, eq.L
		} else if !(lu.SubsetOf(leftCols) && ru.SubsetOf(rightCols)) {
			continue
		}
		lf, err := exec.Compile(le, leftSlots)
		if err != nil {
			return nil, err
		}
		rf, err := exec.Compile(re, rightSlots)
		if err != nil {
			return nil, err
		}
		leftKeys = append(leftKeys, lf)
		rightKeys = append(rightKeys, rf)
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("engine: cardinality verification requires an equi-join")
	}
	countByKey := func(rows []types.Row, keys []exec.EvalFn) (map[string]int, error) {
		m := map[string]int{}
		var keyBuf []byte
		for _, r := range rows {
			keyBuf = keyBuf[:0]
			null := false
			for _, fn := range keys {
				v, err := fn(r)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					null = true
					break
				}
				// Typed self-delimiting key encoding: composite keys with
				// embedded NUL bytes cannot alias (the legacy Key()+"\x00"
				// scheme miscounted them).
				keyBuf = v.AppendKey(keyBuf)
			}
			if null {
				continue
			}
			m[string(keyBuf)]++
		}
		return m, nil
	}
	rightCount, err := countByKey(rightRows, rightKeys)
	if err != nil {
		return nil, err
	}
	leftCount, err := countByKey(leftRows, leftKeys)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("%s %s ON %s", j.Kind, j.Card, plan.ExprString(ctx, j.Cond))
	var out []CardinalityViolation
	checkEnd := func(end sql.CardEnd, side string, own, other map[string]int) {
		switch end {
		case sql.CardOne, sql.CardExactOne:
			for k, c := range own {
				if c > 1 && other[k] > 0 {
					out = append(out, CardinalityViolation{
						Join:   desc,
						Detail: fmt.Sprintf("%s side declared %s but a key matches %d rows", side, end, c),
					})
					break
				}
			}
			if end == sql.CardExactOne {
				for k := range other {
					if own[k] == 0 {
						out = append(out, CardinalityViolation{
							Join:   desc,
							Detail: fmt.Sprintf("%s side declared EXACT ONE but some keys have no match", side),
						})
						break
					}
				}
			}
		}
	}
	checkEnd(j.Card.Right, "right", rightCount, leftCount)
	checkEnd(j.Card.Left, "left", leftCount, rightCount)
	return out, nil
}

func slotMap(cols []types.ColumnID) map[types.ColumnID]int {
	m := make(map[types.ColumnID]int, len(cols))
	for i, id := range cols {
		m[id] = i
	}
	return m
}
