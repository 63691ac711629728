package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vdm/internal/bind"
	"vdm/internal/catalog"
	"vdm/internal/exec"
	"vdm/internal/plan"
	"vdm/internal/sql"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// The soundness property behind every UAJ/ASJ decision: any candidate
// key the property-derivation engine claims for a plan node must be
// genuinely unique on the node's materialized output. This test
// generates random plans (via random SQL over a keyed schema), derives
// keys for the root under the full capability set, executes the plan,
// and checks uniqueness of every claimed key.

func propsSchema(t *testing.T) (*catalog.Catalog, *storage.DB) {
	t.Helper()
	db := storage.NewDB()
	cat := catalog.New(db)
	mk := func(name string, pk []int, cols ...types.Column) {
		tbl, err := db.CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AddKey(storage.KeyConstraint{Name: name + "_pk", Columns: pk, Primary: true}); err != nil {
			t.Fatal(err)
		}
	}
	mk("p", []int{0},
		types.Column{Name: "id", Type: types.TInt, NotNull: true},
		types.Column{Name: "grp", Type: types.TInt},
		types.Column{Name: "val", Type: types.TInt})
	mk("q", []int{0, 1},
		types.Column{Name: "a", Type: types.TInt, NotNull: true},
		types.Column{Name: "b", Type: types.TInt, NotNull: true},
		types.Column{Name: "v", Type: types.TInt})
	r := rand.New(rand.NewSource(5))
	var pRows, qRows []types.Row
	for i := 1; i <= 40; i++ {
		pRows = append(pRows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(r.Intn(5))), types.NewInt(int64(r.Intn(100)))})
	}
	for a := 1; a <= 10; a++ {
		for b := 1; b <= 4; b++ {
			qRows = append(qRows, types.Row{
				types.NewInt(int64(a)), types.NewInt(int64(b)), types.NewInt(int64(r.Intn(100)))})
		}
	}
	if err := db.InsertRows("p", pRows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("q", qRows); err != nil {
		t.Fatal(err)
	}
	return cat, db
}

func genPropsQuery(r *rand.Rand) string {
	base := []string{
		"select id, grp, val from p",
		"select id, grp, val from p where grp = 2",
		"select a, b, v from q",
		"select a, b, v from q where b = 1",
		"select grp, count(*) c, sum(val) s from p group by grp",
		"select distinct grp, val from p",
		"select id, grp, val from p order by val limit 7",
		"select p.id, p.grp, x.v from p left outer join (select a, v from q where b = 2) x on p.id = x.a",
		"select p1.id, p2.val vv from p p1 inner join p p2 on p1.id = p2.id",
		"select id, grp from p where grp < 3 union all select id, grp from p where grp >= 3",
		"select 1 bid, a, v from q where b = 1 union all select 2 bid, a, v from q where b = 2",
	}
	q := base[r.Intn(len(base))]
	if r.Intn(3) == 0 {
		q = fmt.Sprintf("select * from (%s) w where 1 = 1", q)
	}
	return q
}

func TestDerivedKeysAreSound(t *testing.T) {
	cat, db := propsSchema(t)
	r := rand.New(rand.NewSource(31337))
	for qi := 0; qi < 120; qi++ {
		q := genPropsQuery(r)
		body, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		b := bind.New(cat, "")
		p, err := b.BindQuery(body)
		if err != nil {
			t.Fatalf("bind %q: %v", q, err)
		}
		o := NewOptimizer(p.Ctx, ProfileHANA)
		var changed bool
		root := o.Optimize(p.Root)
		_ = changed

		props := o.deriveProps(root)
		if len(props.keys) == 0 {
			continue
		}
		rows, err := exec.NewBuilder(p.Ctx, db, db.CurrentTS()).Run(root)
		if err != nil {
			t.Fatalf("run %q: %v", q, err)
		}
		slot := map[types.ColumnID]int{}
		for i, id := range root.Columns() {
			slot[id] = i
		}
		for _, key := range props.keys {
			seen := map[string]bool{}
			for _, row := range rows {
				var sb strings.Builder
				hasNull := false
				key.ForEach(func(id types.ColumnID) {
					v := row[slot[id]]
					if v.IsNull() {
						hasNull = true
					}
					sb.WriteString(v.Key())
					sb.WriteByte(0)
				})
				if hasNull {
					continue // SQL keys admit NULLs without uniqueness claims
				}
				k := sb.String()
				if seen[k] {
					t.Fatalf("query %q: derived key %s is NOT unique on output\nplan:\n%s",
						q, key, plan.Format(p.Ctx, root))
				}
				seen[k] = true
			}
		}
	}
}

// TestDerivedConstsAreSound: every column claimed constant must hold a
// single value across the output.
func TestDerivedConstsAreSound(t *testing.T) {
	cat, db := propsSchema(t)
	r := rand.New(rand.NewSource(4242))
	for qi := 0; qi < 120; qi++ {
		q := genPropsQuery(r)
		body, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		b := bind.New(cat, "")
		p, err := b.BindQuery(body)
		if err != nil {
			t.Fatal(err)
		}
		o := NewOptimizer(p.Ctx, ProfileHANA)
		root := o.Optimize(p.Root)
		props := o.deriveProps(root)
		if len(props.consts) == 0 {
			continue
		}
		rows, err := exec.NewBuilder(p.Ctx, db, db.CurrentTS()).Run(root)
		if err != nil {
			t.Fatal(err)
		}
		slot := map[types.ColumnID]int{}
		for i, id := range root.Columns() {
			slot[id] = i
		}
		for id, want := range props.consts {
			pos, visible := slot[id]
			if !visible {
				continue
			}
			for _, row := range rows {
				if !types.Equal(row[pos], want.Val) {
					t.Fatalf("query %q: column #%d claimed constant %s but holds %s",
						q, id, want.Val, row[pos])
				}
			}
		}
	}
}
