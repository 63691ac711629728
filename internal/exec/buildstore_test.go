package exec

import (
	"reflect"
	"slices"
	"testing"

	"vdm/internal/storage"
	"vdm/internal/types"
)

// TestBuildReuseForProbe: a probe copy of a built index shares the key
// maps, meters nothing, and owns its memos, so lookups through it leave
// the built index as it was.
func TestBuildReuseForProbe(t *testing.T) {
	dict := types.NewDictView([]string{"a", "b", "c"}, nil)
	coded := func(codes ...int32) types.Vec { return types.Vec{Typ: types.TString, Codes: codes, Dict: dict} }
	ix := newKeyIndex(1, false, &memAcct{})
	keyIDs(t, &ix, false, coded(0, 1, 2, 1))
	memo := ix.cols[0].memo
	cp := ix.forProbe()
	if got := keyIDs(t, &cp, true, coded(2, 0, 1)); !slices.Equal(got, []int32{2, 0, 1}) {
		t.Fatalf("probe copy ids = %v, want [2 0 1]", got)
	}
	if cp.acct != nil {
		t.Fatal("the probe copy meters into the build's account")
	}
	if reflect.ValueOf(cp.cols[0].strs).UnsafePointer() != reflect.ValueOf(ix.cols[0].strs).UnsafePointer() {
		t.Fatal("the probe copy does not share the key map")
	}
	if &cp.cols[0].memo.epoch[0] == &ix.cols[0].memo.epoch[0] || !reflect.DeepEqual(ix.cols[0].memo, memo) {
		t.Fatal("a lookup through the probe copy wrote the built index's memo")
	}
}

// TestBuildReuseStoreBound: published bytes count in the engine-wide
// gauge, a slot keeps its last build, a build past maxRetainedBuildBytes
// is not published and empties its slot, a build whose snapshot predates
// its table's version is not published, and a released store holds and
// takes nothing.
func TestBuildReuseStoreBound(t *testing.T) {
	met := &Metrics{}
	tbl := storage.NewTable("t", types.Schema{{Name: "k", Type: types.TInt}})
	at := func(s *BuildStore, slot int) *buildShare {
		return &buildShare{store: s, slot: slot, snap: tbl.SnapshotAt(5)}
	}
	retained := func(want int64) {
		t.Helper()
		if got := met.RetainedBuildBytes.Value(); got != want {
			t.Fatalf("retained %d bytes, want %d", got, want)
		}
	}
	a, b := NewBuildStore(met), NewBuildStore(met)
	at(a, 2).publish(hashBuild{bytes: 100}, 0)
	at(b, 0).publish(hashBuild{bytes: 50}, 0)
	retained(150)
	at(a, 2).publish(hashBuild{bytes: 30}, 0)
	retained(80)
	if sb, _ := at(a, 2).reusable(); sb == nil || sb.bytes != 30 {
		t.Fatalf("slot 2 holds %v, want the 30-byte build", sb)
	}
	at(b, 1).publish(hashBuild{bytes: maxRetainedBuildBytes}, 0)
	retained(80)
	at(a, 2).publish(hashBuild{bytes: maxRetainedBuildBytes}, 0)
	retained(50)
	if sb, _ := at(a, 2).reusable(); sb != nil {
		t.Fatal("a build past the bound left the slot's older build in place")
	}
	at(a, 0).publish(hashBuild{bytes: 10}, 6) // made at version 6 > snapshot 5
	retained(50)
	a.Release()
	at(a, 0).publish(hashBuild{bytes: 10}, 0)
	retained(50)
	b.Release()
	retained(0)
}
