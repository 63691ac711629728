package exec

import (
	"vdm/internal/plan"
	"vdm/internal/types"
)

// joinIter is the row executor's one join operator: every plan.JoinKind,
// building either side. Open drains the build side (the right input, or
// the left when buildLeft) and indexes its rows by their equi-key bytes;
// a row with a NULL key is never a candidate. With no keys every build
// row sits under the empty key, a candidate for every probe row: the
// nested loop, which is also the cross join. Next streams the other side:
//
//   - building right, a probe row emits probe ++ build for each
//     candidate that passes the residual, in build order, and a LEFT
//     OUTER probe row with none is NULL-extended;
//   - building left, a right row emits left ++ right for each passing
//     candidate, in left order; once the right side ends, LEFT OUTER
//     sweeps the unmatched left rows in left order;
//   - semi and anti joins (always building right) emit the left row iff
//     some candidate passes, XOR anti.
//
// The batch joinSource reproduces the first two orders exactly.
type joinIter struct {
	left, right Iterator
	kind        plan.JoinKind
	buildLeft   bool
	// buildKeys and probeKeys are the equi-key expressions over build
	// and probe rows; a NOT IN join's x = y comes last.
	buildKeys, probeKeys []EvalFn
	residual             EvalFn // over left ++ right rows, may be nil
	// rightTypes are the right columns' plan types: a LEFT OUTER row is
	// NULL-extended with NULLs of these types, as the batch join does.
	rightTypes []types.Type
	// notIn is NOT IN's x over probe rows (nil on other joins); groups
	// holds its build rows by correlation key (see matchesNotIn).
	notIn  EvalFn
	groups map[string]*notInGroup
	gov    *Governance
	acct   memAcct
	stride govStride

	rows    []types.Row      // the build side, in input order
	table   map[string][]int // key bytes -> rows indexes
	matched []bool           // building left: rows that found a partner
	keyBuf  []byte

	// probe state
	probe types.Row
	cands []int
	pos   int
	hit   bool
	done  bool // the probe side ended
	tail  int  // building left: LEFT OUTER sweep position
}

// notInGroup is the build rows of a NOT IN join that share one
// correlation key: all of them, and those whose y is NULL.
type notInGroup struct{ rows, nulls []int }

func (j *joinIter) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.acct = memAcct{gov: j.gov}
	j.stride = govStride{gov: j.gov}
	if err := j.gov.point(PointHashBuild); err != nil {
		return err
	}
	build := j.right
	if j.buildLeft {
		build = j.left
	}
	rows, err := drainRows(build, j.gov, &j.acct)
	if err != nil {
		return err
	}
	j.rows = rows
	if j.buildLeft {
		j.matched = make([]bool, len(rows))
	}
	j.table = make(map[string][]int)
	for i, row := range rows {
		key, null, err := appendEvalKey(j.keyBuf[:0], row, j.buildKeys)
		j.keyBuf = key[:0]
		if err != nil {
			return err
		}
		if !null {
			j.table[string(key)] = append(j.table[string(key)], i)
		}
	}
	if j.notIn != nil {
		return j.indexGroups()
	}
	return nil
}

// indexGroups sorts the build rows of a NOT IN join into correlation
// groups. A row with a NULL correlation key belongs to no group: its
// correlation is never TRUE.
func (j *joinIter) indexGroups() error {
	corr := j.buildKeys[:len(j.buildKeys)-1]
	y := j.buildKeys[len(j.buildKeys)-1]
	j.groups = make(map[string]*notInGroup)
	for i, row := range j.rows {
		key, null, err := appendEvalKey(j.keyBuf[:0], row, corr)
		j.keyBuf = key[:0]
		if err != nil {
			return err
		}
		if null {
			continue
		}
		g := j.groups[string(key)]
		if g == nil {
			g = &notInGroup{}
			j.groups[string(key)] = g
		}
		g.rows = append(g.rows, i)
		v, err := y(row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			g.nulls = append(g.nulls, i)
		}
	}
	return nil
}

// candidates returns the build rows whose equi-keys equal the probe
// row's: none when a probe key is NULL, all of them without keys.
func (j *joinIter) candidates(probe types.Row) ([]int, error) {
	key, null, err := appendEvalKey(j.keyBuf[:0], probe, j.probeKeys)
	j.keyBuf = key[:0]
	if err != nil || null {
		return nil, err
	}
	return j.table[string(key)], nil
}

// pair joins the current probe row with build row bi in left ++ right
// order; ok is false when the residual rejects the pair.
func (j *joinIter) pair(bi int) (types.Row, bool, error) {
	l, r := j.probe, j.rows[bi]
	if j.buildLeft {
		l, r = r, l
	}
	out := make(types.Row, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	if j.residual != nil {
		v, err := j.residual(out)
		if err != nil || v.IsNull() || !v.Bool() {
			return nil, false, err
		}
	}
	return out, true, nil
}

// anyPass reports whether some build row of idxs passes the residual
// against the current probe row.
func (j *joinIter) anyPass(idxs []int) (bool, error) {
	if j.residual == nil {
		return len(idxs) > 0, nil
	}
	for _, bi := range idxs {
		if err := j.stride.tick(); err != nil {
			return false, err
		}
		if _, ok, err := j.pair(bi); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// matches decides a semi or anti join's probe row: whether it has a
// passing candidate.
func (j *joinIter) matches() (bool, error) {
	if j.notIn != nil {
		return j.matchesNotIn()
	}
	cands, err := j.candidates(j.probe)
	if err != nil {
		return false, err
	}
	return j.anyPass(cands)
}

// matchesNotIn decides a NOT IN probe row, reporting true to drop it.
// NOT IN's x = y is the last key, so the key prefix is the correlation:
// it finds the row's group C (the build rows whose correlation is TRUE
// for it), while rows with a non-NULL y also sit in the table under
// correlation key ++ y, making "some row of C has y = x" one lookup.
func (j *joinIter) matchesNotIn() (bool, error) {
	corr, null, err := appendEvalKey(j.keyBuf[:0], j.probe, j.probeKeys[:len(j.probeKeys)-1])
	j.keyBuf = corr[:0]
	if err != nil || null {
		return false, err // NULL correlation: C is empty
	}
	g := j.groups[string(corr)]
	if g == nil {
		return false, nil
	}
	if nonEmpty, err := j.anyPass(g.rows); !nonEmpty || err != nil {
		return false, err
	}
	x, err := j.notIn(j.probe)
	if err != nil || x.IsNull() {
		return true, err
	}
	if hasNull, err := j.anyPass(g.nulls); hasNull || err != nil {
		return true, err
	}
	key := x.AppendKey(corr)
	j.keyBuf = key[:0]
	return j.anyPass(j.table[string(key)])
}

func (j *joinIter) Next() (types.Row, bool, error) {
	semi := j.kind == plan.SemiJoin || j.kind == plan.AntiJoin
	for {
		for j.pos < len(j.cands) {
			if err := j.stride.tick(); err != nil {
				return nil, false, err
			}
			bi := j.cands[j.pos]
			j.pos++
			out, ok, err := j.pair(bi)
			if err != nil {
				return nil, false, err
			}
			if ok {
				if j.buildLeft {
					j.matched[bi] = true
				}
				j.hit = true
				return out, true, nil
			}
		}
		if probe := j.probe; probe != nil {
			j.probe = nil
			if j.kind == plan.LeftOuterJoin && !j.buildLeft && !j.hit {
				return j.nullExtend(probe), true, nil
			}
		}
		if j.done {
			return j.sweep()
		}
		probeSide := j.left
		if j.buildLeft {
			probeSide = j.right
		}
		row, ok, err := probeSide.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.done = true
			continue
		}
		j.probe, j.hit, j.pos = row, false, 0
		if semi {
			m, err := j.matches()
			if err != nil {
				return nil, false, err
			}
			j.probe = nil
			if m != (j.kind == plan.AntiJoin) {
				return row, true, nil
			}
			continue
		}
		if j.cands, err = j.candidates(row); err != nil {
			return nil, false, err
		}
	}
}

// sweep emits a build-left LEFT OUTER join's unmatched left rows once
// the right side has ended.
func (j *joinIter) sweep() (types.Row, bool, error) {
	if !j.buildLeft || j.kind != plan.LeftOuterJoin {
		return nil, false, nil
	}
	for j.tail < len(j.rows) {
		li := j.tail
		j.tail++
		if !j.matched[li] {
			return j.nullExtend(j.rows[li]), true, nil
		}
	}
	return nil, false, nil
}

// nullExtend pads a left row with a typed NULL for every right column.
func (j *joinIter) nullExtend(left types.Row) types.Row {
	out := make(types.Row, len(left), len(left)+len(j.rightTypes))
	copy(out, left)
	for _, t := range j.rightTypes {
		out = append(out, types.NewNull(t))
	}
	return out
}

func (j *joinIter) Close() {
	j.left.Close()
	j.right.Close()
	j.acct.close()
	j.rows, j.table, j.groups, j.matched = nil, nil, nil, nil
}
