//go:build !race

package wal

import (
	"testing"

	"vdm/internal/decimal"
	"vdm/internal/types"
)

// TestEncodeCommitRecordOneAllocation pins the commit record's encoder
// to a single, sufficiently sized buffer: the encoding runs once per
// commit with the commit lock held.
func TestEncodeCommitRecordOneAllocation(t *testing.T) {
	row := types.Row{
		types.NewInt(-1 << 62), // ten-byte varint
		types.NewString("a string longer than any fixed per-value allowance would cover"),
		types.NewDecimal(decimal.New(-1<<62, 9)),
		types.NewFloat(1.5),
		types.NewNull(types.TString),
		types.NewBool(true),
		types.NewDate(19000),
	}
	rec := &CommitRecord{TS: 1 << 60}
	for _, name := range []string{"hb_active", "hb_draft", "hb_ledger"} {
		rec.Tables = append(rec.Tables, TableOps{Table: name, Ops: []RowOp{
			{Kind: OpDelete, Row: row}, {Kind: OpInsert, Row: row},
		}})
	}
	if got := testing.AllocsPerRun(100, func() { EncodeRecord(rec) }); got != 1 {
		t.Fatalf("encoding a commit record allocates %.0f times, want 1", got)
	}
	back, err := DecodeRecord(EncodeRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := back.(*CommitRecord); !ok || c.TS != rec.TS || len(c.Tables) != 3 || len(c.Tables[2].Ops) != 2 {
		t.Fatalf("round trip lost the record: %#v", back)
	}
}
