package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"vdm/internal/decimal"
	"vdm/internal/engine"
	"vdm/internal/htapbench"
	"vdm/internal/storage"
	"vdm/internal/types"
	"vdm/internal/wal"
)

// writeScale is the number of preloaded active documents
// (htapbench.SetupFixture adds writeScale/20 drafts).
const writeScale = 20000

// writeEngineOptions are the fixed engine options of the two write
// workloads: the mixed-workload harness's defaults (auto-merge at 1024
// delta rows, version GC every 20 ms, 10 s statement timeout, 256 MiB
// query budget) plus a WAL with 2 ms group commit and a checkpoint every
// 20 000 commits.
func writeEngineOptions(walDir string) engine.Options {
	o := htapbench.DefaultEngineOptions()
	o.WALDir = walDir
	o.WALSync = wal.SyncInterval
	o.WALSyncInterval = 2 * time.Millisecond
	o.CheckpointEvery = 20000
	return o
}

// The writer stream is the harness's default writer mix — insert 4,
// draft 2, activate 2, delete 2 — issued by one session that owns
// ledger account 1. htapbench keeps its generator unexported, so the mix
// is restated here; every document change moves the ledger balance in
// the same storage.Txn, which is what the conservation oracle checks.
type opKind uint8

const (
	opInsert opKind = iota
	opDraft
	opActivate
	opDelete
)

var opWeights = [...]int{opInsert: 4, opDraft: 2, opActivate: 2, opDelete: 2}

var (
	docTypes   = []string{"INV", "PAY", "CRN", "DBN"}
	currencies = []string{"EUR", "USD", "GBP", "JPY", "CHF"}
)

// An op is one writer transaction, fully described, so that the stream
// can be compared byte for byte.
type op struct {
	kind    opKind
	id      int64
	cents   int64 // amount of a new document
	qty     int64
	docType string
	cur     string
}

func (o op) String() string {
	return fmt.Sprintf("%d %d %d %d %s %s\n", o.kind, o.id, o.cents, o.qty, o.docType, o.cur)
}

// writerGen produces the op stream from the seed alone. It tracks which
// documents exist so that activate and delete always have a target: no
// op of the stream can fail.
type writerGen struct {
	rng    *rand.Rand
	nextID int64
	active []int64
	drafts []int64
}

// newWriterGen starts from the preloaded fixture: active ids 1..scale,
// draft ids scale+1..scale+scale/20.
func newWriterGen(seed int64, scale int) *writerGen {
	g := &writerGen{rng: rand.New(rand.NewSource(seed)), nextID: 1_000_000_000}
	for id := 1; id <= scale; id++ {
		g.active = append(g.active, int64(id))
	}
	for id := scale + 1; id <= scale+scale/20; id++ {
		g.drafts = append(g.drafts, int64(id))
	}
	return g
}

func (g *writerGen) next() op {
	n := g.rng.Intn(10)
	kind := opInsert
	for k, w := range opWeights {
		if n < w {
			kind = opKind(k)
			break
		}
		n -= w
	}
	if kind == opActivate && len(g.drafts) == 0 {
		kind = opDraft
	}
	if kind == opDelete && len(g.active) == 0 {
		kind = opInsert
	}
	o := op{kind: kind}
	take := func(ids *[]int64) int64 {
		i := g.rng.Intn(len(*ids))
		id := (*ids)[i]
		(*ids)[i] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		return id
	}
	switch kind {
	case opInsert, opDraft:
		g.nextID++
		o.id = g.nextID
		o.cents = 100 + g.rng.Int63n(999_900)
		o.qty = 1 + g.rng.Int63n(100)
		o.docType = docTypes[g.rng.Intn(len(docTypes))]
		o.cur = currencies[g.rng.Intn(len(currencies))]
		if kind == opInsert {
			g.active = append(g.active, o.id)
		} else {
			g.drafts = append(g.drafts, o.id)
		}
	case opActivate:
		o.id = take(&g.drafts)
		g.active = append(g.active, o.id)
	case opDelete:
		o.id = take(&g.active)
	}
	return o
}

// writeFixture is a durable engine loaded with the Active/Draft/ledger
// fixture, the writer's generator, and the model the recovery oracle
// compares against.
type writeFixture struct {
	e    *engine.Engine
	db   *storage.DB
	opts engine.Options // opts.WALDir is this fixture's own temporary directory
	gen  *writerGen

	active, draft, ledger       *storage.Table
	activePK, draftPK, ledgerPK int

	// balance is the ledger balance written by the last acknowledged
	// commit that moved it.
	balance decimal.Decimal
}

const ledgerAccount = 1

// setupWrites opens a durable engine in a fresh directory, loads the
// fixture and runs the discarded warm-up commits.
func setupWrites(seed int64, warmup int) (*writeFixture, error) {
	dir, err := os.MkdirTemp("", "vdmbench-wal-")
	if err != nil {
		return nil, err
	}
	fx := &writeFixture{opts: writeEngineOptions(dir)}
	if fx.e, err = engine.Open(fx.opts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fx.db = fx.e.DB()
	cfg := htapbench.Config{Writers: 1, Scale: writeScale, Seed: seed}
	if _, err := htapbench.SetupFixture(fx.e, cfg); err != nil {
		fx.discard()
		return nil, err
	}
	if err := fx.bindTables(); err != nil {
		fx.discard()
		return nil, err
	}
	fx.gen = newWriterGen(seed, writeScale)
	for i := 0; i < warmup; i++ {
		if err := fx.commit(nil, -1, i, fx.gen.next()); err != nil {
			fx.discard()
			return nil, fmt.Errorf("warm-up commit %d: %w", i, err)
		}
	}
	return fx, nil
}

func (fx *writeFixture) bindTables() error {
	for _, b := range []struct {
		name string
		tbl  **storage.Table
		pk   *int
	}{
		{"hb_active", &fx.active, &fx.activePK},
		{"hb_draft", &fx.draft, &fx.draftPK},
		{"hb_ledger", &fx.ledger, &fx.ledgerPK},
	} {
		tbl, ok := fx.db.Table(b.name)
		if !ok {
			return fmt.Errorf("fixture table %s missing", b.name)
		}
		*b.tbl = tbl
		if *b.pk = tbl.PrimaryKeyIndex(); *b.pk < 0 {
			return fmt.Errorf("fixture table %s has no primary key", b.name)
		}
	}
	snap := fx.ledger.SnapshotAt(fx.db.CurrentTS())
	pos, ok := snap.LookupUnique(fx.ledgerPK, types.Row{types.NewInt(ledgerAccount)})
	if !ok {
		return fmt.Errorf("ledger account %d missing", ledgerAccount)
	}
	fx.balance = snap.Row(pos)[1].Decimal()
	return nil
}

// discard closes the engine and removes its WAL directory.
func (fx *writeFixture) discard() {
	fx.e.Close()
	os.RemoveAll(fx.opts.WALDir)
}

// commit runs one writer transaction: Begin, the row operations, Commit.
// With a recorder it also records a span around each of the three.
func (fx *writeFixture) commit(rec *recorder, parent, round int, o op) error {
	s := rec.begin("storage.begin", parent, round)
	tx := fx.db.Begin()
	rec.end(s)

	s = rec.begin("storage.txn_ops", parent, round)
	bal, err := fx.txnOps(tx, o)
	rec.end(s)
	if err != nil {
		tx.Rollback()
		return err
	}

	s = rec.begin("storage.commit", parent, round)
	err = tx.Commit()
	rec.end(s)
	if err != nil {
		return err
	}
	fx.balance = bal
	return nil
}

// txnOps buffers the op's row operations and returns the ledger balance
// the transaction leaves behind.
func (fx *writeFixture) txnOps(tx *storage.Txn, o op) (decimal.Decimal, error) {
	bal := fx.balance
	var delta decimal.Decimal
	switch o.kind {
	case opInsert, opDraft:
		row := types.Row{
			types.NewInt(o.id),
			types.NewString(o.docType),
			types.NewInt(ledgerAccount),
			types.NewDecimal(decimal.New(o.cents, 2)),
			types.NewInt(o.qty),
			types.NewString(o.cur),
			types.NewString(fmt.Sprintf("doc %d", o.id)),
		}
		if o.kind == opDraft {
			return bal, tx.Insert(fx.draft, row) // drafts do not touch the ledger
		}
		if err := tx.Insert(fx.active, row); err != nil {
			return bal, err
		}
		delta = row[3].Decimal()
	case opActivate:
		snap := tx.Snapshot(fx.draft)
		pos, ok := snap.LookupUnique(fx.draftPK, types.Row{types.NewInt(o.id)})
		if !ok {
			return bal, fmt.Errorf("draft %d not found", o.id)
		}
		row := snap.Row(pos)
		if err := tx.DeleteAt(snap, pos); err != nil {
			return bal, err
		}
		if err := tx.Insert(fx.active, row); err != nil {
			return bal, err
		}
		delta = row[3].Decimal()
	case opDelete:
		snap := tx.Snapshot(fx.active)
		pos, ok := snap.LookupUnique(fx.activePK, types.Row{types.NewInt(o.id)})
		if !ok {
			return bal, fmt.Errorf("active %d not found", o.id)
		}
		row := snap.Row(pos)
		if err := tx.DeleteAt(snap, pos); err != nil {
			return bal, err
		}
		delta = row[3].Decimal().Neg()
	}
	// The OLTP read-modify-write: point lookup on the ledger key, then
	// rewrite the balance.
	snap := tx.Snapshot(fx.ledger)
	pos, ok := snap.LookupUnique(fx.ledgerPK, types.Row{types.NewInt(ledgerAccount)})
	if !ok {
		return bal, fmt.Errorf("ledger account %d not found", ledgerAccount)
	}
	bal = snap.Row(pos)[1].Decimal().Add(delta)
	return bal, tx.UpdateAt(snap, pos, types.Row{types.NewInt(ledgerAccount), types.NewDecimal(bal)})
}

// pacing splits an open-loop op's start into the part the system owes
// and the part the generator owes. due is when the op was scheduled,
// prevEnd when the previous op finished, wake when the generator was
// ready to issue this one. If the previous op was still running at due,
// the op queued behind it and is timed from due. Otherwise nothing was in
// flight, so any distance between due and wake is the generator's own
// oversleep: the op is timed from wake and the oversleep reported apart.
func pacing(due, prevEnd, wake time.Duration) (from, late time.Duration) {
	if prevEnd > due {
		return due, 0
	}
	return wake, wake - due
}
