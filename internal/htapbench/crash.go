package htapbench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vdm/internal/engine"
	"vdm/internal/storage"
	"vdm/internal/types"
	"vdm/internal/vdm"
	"vdm/internal/wal"
)

// Crash-recovery leg of the harness: a durable (WAL-backed) variant of
// the Active/Draft fixture whose writer transactions can be hard-killed
// mid-commit and whose recovered state is re-verified with the same
// oracles the mixed-workload run uses (conservation, page sanity) plus
// recovery-specific checks (clock monotonicity, no lost durable
// commits, primary-key uniqueness).
//
// The intended shape — implemented by the kill-loop test and by
// `vdmhtap -crash-recover` — is a parent/child protocol: the child
// process opens the fixture from the WAL directory and streams writer
// commits, appending each commit's timestamp to a progress file AFTER
// the commit is acknowledged (under SyncAlways an acknowledged commit
// is durable); the parent SIGKILLs it at a random moment, reopens the
// directory in-process, and checks that the recovered clock is at or
// past every acknowledged timestamp and that all invariants hold.

// Crash fixture sizing: small enough that each cycle's recovery is
// fast, large enough that deletes, merges, and checkpoints all happen.
const (
	crashScale   = 64
	crashWriters = 2
	// crashCycleIDSpan spaces the per-kill-cycle document-id blocks so a
	// cycle can never collide with rows an earlier (killed) cycle made
	// durable. Blocks start above the preload range at writerIDBase.
	crashCycleIDSpan = int64(1_000_000)
)

// CrashFixture is a durable Active/Draft fixture bound for crash
// cycles.
type CrashFixture struct {
	Eng *engine.Engine
	// Recovered reports that the directory held an earlier life of the
	// fixture and OpenCrashFixture restored it (checkpoint + WAL replay)
	// instead of loading fresh data.
	Recovered bool
	// Info is the engine's recovery summary.
	Info *storage.RecoveryInfo

	db                   *storage.DB
	activeTbl, ledgerTbl *storage.Table
	ledgerPK             int
}

// OpenCrashFixture opens (first life) or recovers (every later life)
// the durable crash fixture rooted at dir. SyncAlways with a small
// CheckpointEvery, so every acknowledged commit is durable and the
// kill loop exercises checkpoint/restore, not just log replay.
func OpenCrashFixture(dir string, seed int64) (*CrashFixture, error) {
	opts := DefaultEngineOptions()
	opts.WALDir = dir
	opts.WALSync = wal.SyncAlways
	opts.CheckpointEvery = 25
	opts.MergeThreshold = 64
	opts.GCInterval = 5 * time.Millisecond
	e, err := engine.Open(opts)
	if err != nil {
		return nil, err
	}
	cf := &CrashFixture{Eng: e, Info: e.Recovery(), db: e.DB()}
	if _, ok := cf.db.Table("hb_active"); !ok {
		cfg := Config{
			Writers: crashWriters, Readers: 1, Scale: crashScale,
			Seed: seed, Ops: 1, Deterministic: true, Engine: opts,
		}
		cfg, err = cfg.normalized()
		if err == nil {
			_, err = SetupFixture(e, cfg)
		}
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("htapbench: crash fixture load: %w", err)
		}
	} else {
		cf.Recovered = true
		// Views live in the engine catalog, not the WAL; redeploy the
		// consumption view over the recovered base tables.
		m := vdm.NewModel(e)
		if err := m.Deploy(vdm.LayerConsumption, ConsumptionView, consumptionViewSQL); err != nil {
			e.Close()
			return nil, fmt.Errorf("htapbench: redeploy view: %w", err)
		}
		e.EnablePlanCache(true)
	}
	for _, bind := range []struct {
		name string
		tbl  **storage.Table
	}{
		{"hb_active", &cf.activeTbl},
		{"hb_ledger", &cf.ledgerTbl},
	} {
		tbl, ok := cf.db.Table(bind.name)
		if !ok {
			e.Close()
			return nil, fmt.Errorf("htapbench: crash fixture table %s missing", bind.name)
		}
		*bind.tbl = tbl
	}
	if cf.ledgerPK = cf.ledgerTbl.PrimaryKeyIndex(); cf.ledgerPK < 0 {
		e.Close()
		return nil, fmt.Errorf("htapbench: hb_ledger has no primary key")
	}
	return cf, nil
}

// Close shuts the engine down, flushing and closing the WAL.
func (cf *CrashFixture) Close() error { return cf.Eng.Close() }

// Clock returns the current commit timestamp.
func (cf *CrashFixture) Clock() uint64 { return cf.db.CurrentTS() }

// RunCrashOps streams up to n writer commits for the given kill cycle:
// document inserts with matching ledger adjustments, interleaved with
// deletes of this cycle's own documents (so replay exercises
// delete-by-value too). After each acknowledged — hence durable —
// commit it writes the commit timestamp as one line to progress. The
// caller is expected to be SIGKILLed at an arbitrary point; every
// return path other than running to completion reports the error.
func (cf *CrashFixture) RunCrashOps(cycle, n int, progress io.Writer) error {
	rng := rand.New(rand.NewSource(sessionSeed(int64(cycle)+1, "crash")))
	type ref struct{ id, c int64 }
	var live []ref
	base := writerIDBase + int64(cycle)*crashCycleIDSpan
	const account = int64(1)
	for i := 0; i < n; i++ {
		tx := cf.db.Begin()
		var err error
		if len(live) > 4 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			r := live[j]
			snap := tx.Snapshot(cf.activeTbl)
			pos, ok := snap.LookupUnique(cf.activeTbl.PrimaryKeyIndex(), types.Row{types.NewInt(r.id)})
			if !ok {
				tx.Rollback()
				return fmt.Errorf("crash cycle %d: own document %d missing", cycle, r.id)
			}
			if err = tx.DeleteAt(snap, pos); err == nil {
				err = adjustLedger(tx, cf.ledgerTbl, cf.ledgerPK, account, -r.c)
			}
			if err == nil {
				if err = tx.Commit(); err == nil {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			} else {
				tx.Rollback()
			}
		} else {
			id := base + int64(i) + 1
			c := 100 + rng.Int63n(999_900)
			op := Op{
				ID: id, Account: account, Cents: c,
				Qty:     1 + rng.Int63n(100),
				DocType: docTypes[rng.Intn(len(docTypes))],
				Cur:     currencies[rng.Intn(len(currencies))][0],
			}
			if err = tx.Insert(cf.activeTbl, docRow(op)); err == nil {
				err = adjustLedger(tx, cf.ledgerTbl, cf.ledgerPK, account, c)
			}
			if err == nil {
				if err = tx.Commit(); err == nil {
					live = append(live, ref{id, c})
				}
			} else {
				tx.Rollback()
			}
		}
		if err != nil {
			return fmt.Errorf("crash cycle %d op %d: %w", cycle, i, err)
		}
		if progress != nil {
			if _, err := fmt.Fprintf(progress, "%d\n", cf.db.CurrentTS()); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyRecovered re-runs the mixed-workload oracles against the
// (re)opened fixture and returns every violation found:
//
//   - conservation: active-document amounts sum to the ledger balance —
//     a torn commit that replayed half of its row ops would break this;
//   - page sanity: the consumption-view ORDER BY+LIMIT page is ordered
//     and bounded;
//   - primary-key uniqueness: no document id replayed twice.
func (cf *CrashFixture) VerifyRecovered(ctx context.Context) []string {
	var out []string
	res, err := cf.Eng.QueryContext(ctx, conserveSQL)
	switch {
	case err != nil:
		out = append(out, "conservation query: "+err.Error())
	case res.Rows[0][0].IsNull() || !res.Rows[0][0].Decimal().IsZero():
		out = append(out, fmt.Sprintf("conservation: active sum minus ledger balance = %v, want 0", res.Rows[0][0]))
	}
	res, err = cf.Eng.QueryContext(ctx, pageQuery(0))
	switch {
	case err != nil:
		out = append(out, "page query: "+err.Error())
	default:
		if v := checkPage(res); v != "" {
			out = append(out, "page-sanity: "+v)
		}
	}
	res, err = cf.Eng.QueryContext(ctx,
		`select count(*), count(distinct id) from hb_active`)
	switch {
	case err != nil:
		out = append(out, "uniqueness query: "+err.Error())
	case res.Rows[0][0].Int() != res.Rows[0][1].Int():
		out = append(out, fmt.Sprintf("pk-uniqueness: %v rows but %v distinct ids",
			res.Rows[0][0], res.Rows[0][1]))
	}
	return out
}
