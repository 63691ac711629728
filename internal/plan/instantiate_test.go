package plan

import (
	"testing"

	"vdm/internal/types"
)

func slotted(slot int, v int64) *Const { return &Const{Val: types.NewInt(v), Slot: slot} }

// TestExprKeySlots pins that a lifted literal is keyed by its slot: two
// slots never compare equal, whatever values one statement gives them,
// and a slot never equals a plan constant.
func TestExprKeySlots(t *testing.T) {
	x := c(1)
	if ExprKey(b(">", x, slotted(1, 5))) == ExprKey(b(">", x, slotted(2, 5))) {
		t.Error("x > $1 and x > $2 share a key")
	}
	if ExprKey(b(">", x, slotted(1, 5))) != ExprKey(b(">", x, slotted(1, 7))) {
		t.Error("one slot keys differently under two values")
	}
	if ExprKey(slotted(1, 5)) == ExprKey(konst(types.NewInt(5))) {
		t.Error("a slot equals a plan constant of its value")
	}
	if got := ExprString(nil, b("=", x, slotted(3, 5))); got != "(#1 = $3)" {
		t.Errorf("slot renders as %s", got)
	}
}

// TestInstantiateCopiesOnlyTheChangedPath re-binds one slot of a plan and
// checks that the nodes above it are copied, the sibling subtree is
// shared, and the template is left as it was.
func TestInstantiateCopiesOnlyTheChangedPath(t *testing.T) {
	ctx := NewContext()
	info := &TableInfo{Name: "t", Schema: types.Schema{{Name: "a", Type: types.TInt}}}
	left := &Filter{Input: &Scan{Info: info, Instance: 1, Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}, Ords: []int{0}},
		Cond: b(">", c(0), slotted(1, 5))}
	right := &Filter{Input: &Scan{Info: info, Instance: 2, Cols: []types.ColumnID{ctx.NewColumn("a", types.TInt)}, Ords: []int{0}},
		Cond: b("<", c(1), slotted(2, 9))}
	root := &Limit{Count: 3, Input: &Join{Kind: InnerJoin, Left: left, Right: right, Cond: b("=", c(0), c(1))}}
	before := Format(ctx, root)

	vals := []types.Value{{}, types.NewInt(-4), types.NewInt(9)}
	got := Instantiate(root, vals)
	if got == Node(root) {
		t.Fatal("a changed literal returned the template")
	}
	j := got.(*Limit).Input.(*Join)
	if j == root.Input || j.Left == Node(left) {
		t.Fatal("the path to the changed literal was not copied")
	}
	if j.Right != Node(right) {
		t.Fatal("the unchanged subtree was copied")
	}
	if k := j.Left.(*Filter).Cond.(*Bin).R.(*Const); k.Val.Int() != -4 || k.Slot != 1 {
		t.Fatalf("slot 1 = %v (slot %d)", k.Val, k.Slot)
	}
	if Format(ctx, root) != before || left.Cond.(*Bin).R.(*Const).Val.Int() != 5 {
		t.Fatal("Instantiate modified the template")
	}
	if Instantiate(root, []types.Value{{}, types.NewInt(5), types.NewInt(9)}) != Node(root) {
		t.Fatal("the template's own literals did not return the template")
	}
}
