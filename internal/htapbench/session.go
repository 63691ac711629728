package htapbench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vdm/internal/engine"
	"vdm/internal/replica"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Session op generation and execution. Generation is pure: each session
// owns an RNG seeded from (run seed, session name), so its operation
// stream is identical across runs regardless of goroutine interleaving.
// Execution takes a fully-described Op, which is what makes schedule
// logs replayable without any generator state.

// writerSession is one OLTP session. It owns one ledger account and an
// exclusive document-id range, so its transactions never conflict with
// other sessions — conservation violations can then only come from
// engine bugs, not benchmark races.
type writerSession struct {
	name    string
	rng     *rand.Rand
	account int64
	nextID  int64
	active  []docRef
	drafts  []docRef
	log     []Op
}

// readerSession is one analytical session; lastTS carries the
// monotonic-freshness state between its queries.
type readerSession struct {
	name   string
	rng    *rand.Rand
	lastTS uint64
	log    []Op
}

// sessionSeed derives a per-session RNG seed; the golden-ratio odd
// constant decorrelates adjacent sessions.
func sessionSeed(seed int64, name string) int64 {
	h := seed
	for _, b := range []byte(name) {
		h = (h ^ int64(b)) * -0x61c8864680b583eb // 2^64 / phi, as int64
	}
	return h
}

func (h *Harness) newWriter(idx int) *writerSession {
	name := fmt.Sprintf("W%d", idx+1)
	w := &writerSession{
		name:    name,
		rng:     rand.New(rand.NewSource(sessionSeed(h.cfg.Seed, name))),
		account: int64(1 + idx%h.fx.Accounts),
		nextID:  int64(idx+1) * writerIDBase,
	}
	if idx < len(h.fx.PerWriterActive) {
		w.active = append(w.active, h.fx.PerWriterActive[idx]...)
	}
	if idx < len(h.fx.PerWriterDrafts) {
		w.drafts = append(w.drafts, h.fx.PerWriterDrafts[idx]...)
	}
	return w
}

func (h *Harness) newReader(idx int) *readerSession {
	name := fmt.Sprintf("R%d", idx+1)
	return &readerSession{name: name, rng: rand.New(rand.NewSource(sessionSeed(h.cfg.Seed, name)))}
}

// pickWeighted walks the (kind, weight) pairs and picks one position by
// rng over the total weight.
func pickWeighted(rng *rand.Rand, kinds []OpKind, weights []int) OpKind {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return kinds[i]
		}
		n -= w
	}
	return kinds[len(kinds)-1]
}

// genOp generates the writer's next operation and advances its local
// inventory. The inventory update happens at generation time: writer
// transactions cannot conflict (the session owns its rows), so under
// normal operation generated state and database state agree; an
// injected commit failure makes later ops on the phantom row fail,
// which the outcome digest records deterministically.
func (w *writerSession) genOp(m Mix, seq int) Op {
	kind := pickWeighted(w.rng,
		[]OpKind{OpInsert, OpDraft, OpActivate, OpDelete},
		[]int{m.Insert, m.Draft, m.Activate, m.Delete})
	// Degrade deterministically when a target class is empty.
	if kind == OpActivate && len(w.drafts) == 0 {
		kind = OpDraft
	}
	if kind == OpDelete && len(w.active) == 0 {
		kind = OpInsert
	}
	op := Op{Session: w.name, Seq: seq, Kind: kind, Account: w.account}
	switch kind {
	case OpInsert, OpDraft:
		w.nextID++
		op.ID = w.nextID
		op.Cents = 100 + w.rng.Int63n(999_900)
		op.Qty = 1 + w.rng.Int63n(100)
		op.DocType = docTypes[w.rng.Intn(len(docTypes))]
		op.Cur = currencies[w.rng.Intn(len(currencies))][0]
		ref := docRef{id: op.ID, cents: op.Cents}
		if kind == OpInsert {
			w.active = append(w.active, ref)
		} else {
			w.drafts = append(w.drafts, ref)
		}
	case OpActivate:
		i := w.rng.Intn(len(w.drafts))
		ref := w.drafts[i]
		w.drafts[i] = w.drafts[len(w.drafts)-1]
		w.drafts = w.drafts[:len(w.drafts)-1]
		w.active = append(w.active, ref)
		op.ID, op.Cents = ref.id, ref.cents
	case OpDelete:
		i := w.rng.Intn(len(w.active))
		ref := w.active[i]
		w.active[i] = w.active[len(w.active)-1]
		w.active = w.active[:len(w.active)-1]
		op.ID, op.Cents = ref.id, ref.cents
	}
	return op
}

// pageSize is the ORDER BY+LIMIT page the paging readers fetch.
const pageSize = 50

// genOp generates the reader's next operation.
func (r *readerSession) genOp(m Mix, seq int) Op {
	kind := pickWeighted(r.rng,
		[]OpKind{OpView, OpFilter, OpPage, OpConserve, OpPinned, OpReplica},
		[]int{m.View, m.Filter, m.Page, m.Conserve, m.Pinned, m.Replica})
	op := Op{Session: r.name, Seq: seq, Kind: kind}
	switch kind {
	case OpPage:
		op.Offset = r.rng.Intn(10) * pageSize
	case OpFilter:
		op.MinCents = 100 + r.rng.Int63n(900_000)
		op.Cur = currencies[r.rng.Intn(len(currencies))][0]
	}
	return op
}

// --- writer execution ----------------------------------------------------

// adjustLedger adds deltaCents to account acct's balance in ledger,
// whose primary key index is pk, inside tx: a unique-index point lookup
// (the OLTP read-modify-write shape) shared by the harness writers and
// the crash fixture.
func adjustLedger(tx *storage.Txn, ledger *storage.Table, pk int, acct, deltaCents int64) error {
	snap := tx.Snapshot(ledger)
	pos, ok := snap.LookupUnique(pk, types.Row{types.NewInt(acct)})
	if !ok {
		return fmt.Errorf("ledger account %d not found", acct)
	}
	row := snap.Row(pos)
	newBal := row[1].Decimal().Add(cents(deltaCents).Decimal())
	return tx.UpdateAt(snap, pos, types.Row{types.NewInt(acct), types.NewDecimal(newBal)})
}

// docRow builds a document row from an op's fields.
func docRow(op Op) types.Row {
	return types.Row{
		types.NewInt(op.ID),
		types.NewString(op.DocType),
		types.NewInt(op.Account),
		cents(op.Cents),
		types.NewInt(op.Qty),
		types.NewString(op.Cur),
		types.NewString(fmt.Sprintf("doc %d", op.ID)),
	}
}

// applyWriterOp executes one writer transaction and returns the outcome
// string for the schedule digest. Failures roll the transaction back
// and report err:<detail>; the engine must stay consistent either way.
func (h *Harness) applyWriterOp(op Op) string {
	tx := h.db.Begin()
	if err := h.writerTx(tx, op); err != nil {
		tx.Rollback()
		return "err:" + err.Error()
	}
	if err := tx.Commit(); err != nil {
		return "err:commit:" + err.Error()
	}
	return "ok"
}

func (h *Harness) writerTx(tx *storage.Txn, op Op) error {
	switch op.Kind {
	case OpInsert:
		if err := tx.Insert(h.activeTbl, docRow(op)); err != nil {
			return err
		}
		return adjustLedger(tx, h.ledgerTbl, h.ledgerPK, op.Account, op.Cents)
	case OpDraft:
		return tx.Insert(h.draftTbl, docRow(op))
	case OpActivate:
		snap := tx.Snapshot(h.draftTbl)
		pos, ok := snap.LookupUnique(h.draftPK, types.Row{types.NewInt(op.ID)})
		if !ok {
			return fmt.Errorf("draft %d not found", op.ID)
		}
		if err := tx.DeleteAt(snap, pos); err != nil {
			return err
		}
		// The activated document carries the draft's full contents.
		if err := tx.Insert(h.activeTbl, snap.Row(pos)); err != nil {
			return err
		}
		return adjustLedger(tx, h.ledgerTbl, h.ledgerPK, op.Account, op.Cents)
	case OpDelete:
		snap := tx.Snapshot(h.activeTbl)
		pos, ok := snap.LookupUnique(h.activePK, types.Row{types.NewInt(op.ID)})
		if !ok {
			return fmt.Errorf("active %d not found", op.ID)
		}
		if err := tx.DeleteAt(snap, pos); err != nil {
			return err
		}
		return adjustLedger(tx, h.ledgerTbl, h.ledgerPK, op.Account, -op.Cents)
	}
	return fmt.Errorf("unknown writer op %s", op.Kind)
}

// --- reader execution ----------------------------------------------------

const (
	viewSQL = `select doc_type, count(*) n, sum(amount) total from ` + ConsumptionView +
		` group by doc_type order by doc_type`
	conserveSQL = `select sum(v) from (
		select amount v from hb_active
		union all
		select 0.00 - balance from hb_ledger
	) t`
	pinnedSQL = `select bid, id, amount from ` + ConsumptionView + ` order by bid, id limit 200`
)

func pageQuery(offset int) string {
	return fmt.Sprintf(`select bid, id, doc_type, amount, currency_name from %s `+
		`order by amount desc, bid, id limit %d offset %d`, ConsumptionView, pageSize, offset)
}

func filterQuery(minCents int64, cur string) string {
	return fmt.Sprintf(`select count(*), sum(amount) from hb_active `+
		`where amount >= %d.%02d and currency = '%s'`, minCents/100, minCents%100, cur)
}

// killClass names the governance class that killed a query, or "" for
// non-governance errors.
func killClass(err error) string {
	switch {
	case errors.Is(err, engine.ErrTimeout):
		return "timeout"
	case errors.Is(err, engine.ErrMemoryBudget):
		return "mem_budget"
	case errors.Is(err, engine.ErrAdmissionTimeout):
		return "admission"
	case errors.Is(err, engine.ErrCancelled):
		return "cancelled"
	}
	return ""
}

// applyReaderOp runs one analytical operation under a read lease,
// checking monotonic freshness on entry and the per-kind invariant on
// the result. It returns the outcome string for the schedule digest.
func (h *Harness) applyReaderOp(ctx context.Context, r *readerSession, op Op) string {
	lease := h.db.AcquireRead()
	defer lease.Release()
	ts := lease.TS()
	h.check.Checked("freshness")
	if ts < r.lastTS {
		h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "freshness",
			Detail: fmt.Sprintf("snapshot ts moved backwards: %d after %d", ts, r.lastTS)})
	}
	r.lastTS = ts
	h.lagHist.Observe(int64(h.db.WatermarkLag()))

	query := func(sql string) (*engine.Result, string) {
		res, err := h.eng.QueryPinned(ctx, ts, sql)
		if err != nil {
			if k := killClass(err); k != "" {
				h.killed(op.Kind)
				return nil, "killed:" + k
			}
			h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "query-error", Detail: err.Error()})
			return nil, "err:" + err.Error()
		}
		return res, ""
	}

	switch op.Kind {
	case OpView:
		res, out := query(viewSQL)
		if res == nil {
			return out
		}
		return resultDigest(res)

	case OpFilter:
		res, out := query(filterQuery(op.MinCents, op.Cur))
		if res == nil {
			return out
		}
		return resultDigest(res)

	case OpPage:
		res, out := query(pageQuery(op.Offset))
		if res == nil {
			return out
		}
		h.check.Checked("page-sanity")
		if v := checkPage(res); v != "" {
			h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "page-sanity", Detail: v})
		}
		return resultDigest(res)

	case OpConserve:
		res, out := query(conserveSQL)
		if res == nil {
			return out
		}
		h.check.Checked("conservation")
		v := res.Rows[0][0]
		if v.IsNull() || !v.Decimal().IsZero() {
			h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "conservation",
				Detail: fmt.Sprintf("active-document sum minus ledger balance = %v, want 0", v)})
		}
		return resultDigest(res)

	case OpPinned:
		before, out := query(pinnedSQL)
		if before == nil {
			return out
		}
		// Force a merge and a vacuum while the lease pins ts: the same
		// query at the same timestamp must not move.
		_ = h.activeTbl.MergeDelta()
		_ = h.draftTbl.MergeDelta()
		_, _ = h.db.Vacuum()
		after, out := query(pinnedSQL)
		if after == nil {
			return out
		}
		h.check.Checked("snapshot-consistency")
		if same, diff := sameResult(before, after); !same {
			h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "snapshot-consistency",
				Detail: "pinned read changed across merge+vacuum: " + diff})
		}
		return resultDigest(before)

	case OpReplica:
		return h.applyReplicaOp(ctx, r, op, ts, query)
	}
	return "err:unknown reader op " + string(op.Kind)
}

// applyReplicaOp is the replica-consistency probe: run the pinned
// analytical query on a caught-up replica and check it row- and order-
// identical against the primary at the same timestamp. The reader's
// primary lease (already held by applyReaderOp) pins the primary's
// watermark at or below ts, so any timestamp the replica is pinned at
// afterwards is GC-safe to re-read on the primary.
func (h *Harness) applyReplicaOp(ctx context.Context, r *readerSession, op Op, ts uint64, query func(string) (*engine.Result, string)) string {
	set := h.replicas
	if set == nil {
		return "skip:no-replicas"
	}
	// Wait for a replica to apply everything up to the pinned timestamp.
	// Deterministic mode waits generously: the scheduler is single-
	// threaded, so the primary clock is frozen at ts and the tailers
	// always drain to it — the op then pins exactly ts and the digest is
	// byte-stable. Concurrent mode bounds the wait and falls back to a
	// primary-pinned read (a distinct outcome class) when replicas lag.
	wait := 500 * time.Millisecond
	if h.cfg.Deterministic {
		wait = 10 * time.Second
	}
	deadline := time.Now().Add(wait)
	var rep *replica.Replica
	for {
		if got, ok := set.Best(ts); ok {
			rep = got
			break
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if rep == nil {
		res, out := query(pinnedSQL)
		if res == nil {
			return out
		}
		h.noteReplicaFallback()
		return "fallback:" + resultDigest(res)
	}

	// Pin the replica at its applied timestamp W >= ts. The replica
	// lease protects the replica-side read; the primary re-read at W is
	// protected by the reader's primary lease (watermark <= ts <= W).
	rdb := rep.DB()
	rlease := rdb.AcquireRead()
	defer rlease.Release()
	w := rlease.TS()

	runAt := func(do func() (*engine.Result, error)) (*engine.Result, string) {
		res, err := do()
		if err != nil {
			if k := killClass(err); k != "" {
				h.killed(op.Kind)
				return nil, "killed:" + k
			}
			h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "query-error", Detail: err.Error()})
			return nil, "err:" + err.Error()
		}
		return res, ""
	}
	repRes, out := runAt(func() (*engine.Result, error) { return h.eng.QueryOnReplica(ctx, rdb, w, pinnedSQL) })
	if repRes == nil {
		return out
	}
	primRes, out := runAt(func() (*engine.Result, error) { return h.eng.QueryPinned(ctx, w, pinnedSQL) })
	if primRes == nil {
		return out
	}
	h.check.Checked("replica-consistency")
	if same, diff := sameResult(repRes, primRes); !same {
		h.check.Violate(Violation{Session: r.name, Seq: op.Seq, Kind: "replica-consistency",
			Detail: fmt.Sprintf("replica %d pinned at %d diverges from primary: %s", rep.ID(), w, diff)})
	}
	h.noteReplicaRead(rep)
	return resultDigest(repRes)
}

// checkPage verifies the paging result: at most one page of rows,
// ordered by (amount desc, bid, id). Returns "" when sane.
func checkPage(res *engine.Result) string {
	if len(res.Rows) > pageSize {
		return fmt.Sprintf("page has %d rows, limit %d", len(res.Rows), pageSize)
	}
	// Columns: bid(0), id(1), doc_type(2), amount(3), currency_name(4).
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		c, err := types.Compare(a[3], b[3])
		if err != nil {
			return err.Error()
		}
		if c < 0 {
			return fmt.Sprintf("amount ascends at row %d: %v before %v", i, a[3], b[3])
		}
		if c > 0 {
			continue
		}
		for _, col := range []int{0, 1} {
			c, err = types.Compare(a[col], b[col])
			if err != nil {
				return err.Error()
			}
			if c != 0 {
				break
			}
		}
		if c > 0 {
			return fmt.Sprintf("tie-break order violated at row %d", i)
		}
	}
	return ""
}
