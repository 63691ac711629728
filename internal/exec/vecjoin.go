package exec

import (
	"slices"

	"vdm/internal/plan"
	"vdm/internal/types"
)

// Vectorized hash join: a batch source over two batch sources. Open
// drains the build side once into typed column vectors (string columns
// re-encoded into a build-local dictionary) and numbers the non-NULL keys
// with a keyIndex. Next streams probe batches through the index and
// emits joined batches without boxing a row:
//
//   - when no probe row of a batch matches more than one build row (n:1
//     associations, LEFT OUTER extension), the probe batch's vectors pass
//     through by reference under a selection vector narrowed to the rows
//     that produce output, and the build columns are gathered at those
//     positions (an unmatched outer row gets its NULL bit set);
//   - a batch with a fan-out (1:n) row gathers the probe columns too and
//     emits its pairs in chunks of at most the batch size.
//
// Emission order, NULL-key handling, LEFT OUTER extension and the
// build-left tail sweep replicate the row executor's joinIter, building
// right or left, exactly, so results are row- and order-identical to
// the row executor. The probe
// streams, so a LIMIT above stops the probe scan early.
//
// Two things are done once per build row instead of once per output
// row. A Filter above the join may fold its build-only conjuncts into
// the join (fold): Open evaluates them over the build rows and over one
// all-NULL extension row and folds the pass bits into the build layout,
// and the probe drops failing pairs before anything is gathered. And
// the join gathers only the output columns its consumer reads (need),
// so a build column that only the folded filter or nobody reads is
// never copied per row.
//
// When every key has one build row (the n:1 associations of the VDM),
// a key id resolves straight to its outcome — its build row, or
// filtered — and the probe takes one lookup per live row, a
// dictionary-coded key's once per code per dictionary view.

// buildCol is one build-side column drained into a typed vector. String
// values are re-encoded into a build-local dictionary, so the vector's
// codes stay valid for the join's lifetime (storage codes do not), and
// columns gathered from it are dictionary-coded like scanned ones. A
// keyIndex interns the strings: a string's code is its id, so the
// dictionary holds each distinct string once. A stored single-column
// string key takes its codes from the join's own key index instead, so
// its strings are interned and metered once.
type buildCol struct {
	vec  types.Vec
	n    int
	dict []string
	strs keyIndex
}

// appendRows appends the rows at the given indexes of b's column ci and
// returns the bytes they add. A string column's codes are ids, its
// rows' ids in the join's key index when given, else interned through
// the column's own index and metered through acct.
func (c *buildCol) appendRows(b *Batch, ci int, rows, ids []int32, acct *memAcct) (int64, error) {
	src := &b.Cols[ci]
	v := &c.vec
	v.Typ = src.Typ
	if len(src.Nulls) > 0 {
		for k, ri := range rows {
			if src.NullAt(int(ri)) {
				v.SetNull(c.n + k)
			}
		}
	}
	c.n += len(rows)
	n := int64(len(rows))
	switch {
	case src.Typ == types.TString:
		return 4 * n, c.appendStrings(b, ci, rows, ids, acct)
	case src.Typ == types.TFloat:
		for _, ri := range rows {
			v.F64 = append(v.F64, src.F64[ri])
		}
		return 8 * n, nil
	case src.Typ == types.TDecimal:
		for _, ri := range rows {
			v.I64 = append(v.I64, src.I64[ri])
			v.Scale = append(v.Scale, src.Scale[ri])
		}
		return 12 * n, nil
	}
	v.I64 = slices.Grow(v.I64, len(rows))
	for _, ri := range rows {
		v.I64 = append(v.I64, src.I64[ri])
	}
	return 8 * n, nil
}

// appendStrings appends string rows as build-local codes: their ids,
// given or taken from the column's own index, which decodes each
// distinct storage code once per dictionary view. NULL rows get code 0,
// which no reader looks at.
func (c *buildCol) appendStrings(b *Batch, ci int, rows, ids []int32, acct *memAcct) error {
	if c.dict == nil {
		// A storage dictionary bounds the distinct strings a scanned
		// column holds: size the dictionary for it up front.
		c.dict = make([]string, 0, min(b.Cols[ci].Dict.Size(), len(rows)))
	}
	base := len(c.vec.Codes)
	if ids != nil {
		c.vec.Codes = append(c.vec.Codes, ids...)
	} else {
		if c.strs.cols == nil {
			c.strs = newKeyIndex(1, false, acct)
		}
		var err error
		if c.vec.Codes, err = c.strs.insert(b, []int{ci}, rows, c.vec.Codes); err != nil {
			return err
		}
		ids = c.vec.Codes[base:]
	}
	for k, code := range ids {
		switch {
		case code < 0:
			c.vec.Codes[base+k] = 0
		case int(code) == len(c.dict):
			c.dict = append(c.dict, b.Cols[ci].StrAt(int(rows[k])))
		}
	}
	return nil
}

// gatherVec resets dst to n rows of src's layout and copies src row
// from[k] to dst row to[k]; from[k] < 0 writes NULL. Dictionary-coded
// strings are gathered as codes under src's dictionary.
func gatherVec(dst, src *types.Vec, n int, to, from []int32) {
	strs := len(src.Strs) > 0
	if strs {
		dst.ResetStrings(n)
	} else {
		dst.Reset(src.Typ, n)
		dst.Dict = src.Dict
	}
	hasNulls := len(src.Nulls) > 0
	for k, f := range from {
		if f < 0 || (hasNulls && src.NullAt(int(f))) {
			dst.SetNull(int(to[k]))
		}
	}
	switch {
	case strs:
		for k, f := range from {
			if f >= 0 {
				dst.Strs[to[k]] = src.Strs[f]
			}
		}
	case src.Typ == types.TString:
		for k, f := range from {
			if f >= 0 {
				dst.Codes[to[k]] = src.Codes[f]
			}
		}
	case src.Typ == types.TFloat:
		for k, f := range from {
			if f >= 0 {
				dst.F64[to[k]] = src.F64[f]
			}
		}
	case src.Typ == types.TDecimal:
		for k, f := range from {
			if f >= 0 {
				dst.I64[to[k]], dst.Scale[to[k]] = src.I64[f], src.Scale[f]
			}
		}
	default:
		for k, f := range from {
			if f >= 0 {
				dst.I64[to[k]] = src.I64[f]
			}
		}
	}
}

// joinSource is the batch equi hash join, inner or left-outer. Its
// output batch holds the plan's left columns then its right columns,
// whichever side builds.
type joinSource struct {
	build, probe *vecSpec
	// buildLeft: the hash side is the plan's left input (the optimizer's
	// BuildLeft choice); otherwise the conventional build-right layout.
	buildLeft bool
	leftOuter bool
	// bkc and pkc are the key batch columns of the build/probe batches.
	bkc, pkc  []int
	batchSize int
	gov       *Governance
	met       *Metrics
	// probeTyps are the probe columns' plan types, by probe output
	// position: the NULL extension's types when no probe batch came.
	probeTyps []types.Type
	srcStats
	// probeOff and buildOff are each side's first output column. keep
	// marks the output columns a consumer reads (all until need narrows
	// it); store marks the build columns the build holds: the kept ones
	// and those the folded filter reads.
	probeOff, buildOff int
	keep, store        []bool
	// filt is the folded build-side filter (see fold): conjuncts over
	// the build columns filtCols only, compiled against the scratch
	// layout of over, the pipeline above the join.
	filt     []vecExpr
	filtCols []int
	over     *vecSpec

	acct memAcct
	hashBuild
	// keyOf holds each build row's id while building (-1: NULL key).
	keyOf   []int32
	matched []bool  // buildLeft && leftOuter
	ids     []int32 // a probe batch's key ids
	// share is the join's slot in a cached plan's BuildStore, nil when
	// its build is not shared.
	share *buildShare

	// probe state
	pb           *Batch
	pairP, pairB []int32 // output pairs: probe row, build row (-1: NULL)
	pairPos      int
	probeDone    bool
	tailPos      int
	out          Batch
	gath         []types.Vec // gathered output columns, by position
	all          []int32
}

// hashBuild is a finished build: the build side's column store, its key
// index and the layout of its rows. A shared build is read-only.
type hashBuild struct {
	cols   []buildCol // build side, one per build output column
	nbuild int
	// keys numbers the distinct non-NULL build keys in first-seen order;
	// the rows of id k are rows[off[k]:off[k+1]], in build order, a row
	// failing the folded filter as ^row. When every id has one row
	// (unique), rows[k] is id k's outcome: its build row, or filtered.
	keys      keyIndex
	off, rows []int32
	unique    bool
	// nullPass: the folded filter holds on the NULL extension.
	nullPass bool
	bytes    int64 // metered against the query budget
}

// fold moves one conjunct of a Filter in the join's own pipeline (over)
// into the join, when the conjunct reads build columns only: cols are
// its batch columns, which below any computed column are the join's
// output columns. An inner join folds either build side; a left outer
// join only when it builds its NULL-supplying right side, where an
// unmatched probe row's NULL extension survives iff the conjunct holds
// on all-NULL build columns. A shared build records the conjunct's plan
// expression (conj). Reports whether the conjunct moved.
func (j *joinSource) fold(c vecExpr, conj plan.Expr, cols []int, over *vecSpec) bool {
	if j.leftOuter && j.buildLeft {
		return false
	}
	nb := len(j.build.proj)
	for _, bc := range cols {
		if bc < j.buildOff || bc >= j.buildOff+nb {
			return false
		}
	}
	for _, bc := range cols {
		if !slices.Contains(j.filtCols, bc-j.buildOff) {
			j.filtCols = append(j.filtCols, bc-j.buildOff)
		}
	}
	j.filt, j.over = append(j.filt, c), over
	if j.share != nil {
		j.share.from = append(j.share.from, conj)
	}
	return true
}

// need narrows the join's output to the columns its consumer reads (out,
// by output position) and passes on what each input must then produce:
// the probe its read columns and keys, the build its stored columns and
// keys.
func (j *joinSource) need(out []bool) {
	nb := len(j.build.proj)
	j.keep = out
	j.store = slices.Clone(out[j.buildOff : j.buildOff+nb])
	for _, k := range j.filtCols {
		j.store[k] = true
	}
	var probe, build []int
	for k, bc := range j.probe.proj {
		if out[j.probeOff+k] {
			probe = append(probe, bc)
		}
	}
	for k, bc := range j.build.proj {
		if j.store[k] {
			build = append(build, bc)
		}
	}
	j.probe.need(append(probe, j.pkc...))
	j.build.need(append(build, j.bkc...))
}

func (j *joinSource) open() error {
	defer j.timeOpen()()
	j.acct = memAcct{gov: j.gov}
	if err := j.gov.point(PointHashBuild); err != nil {
		return err
	}
	if j.met != nil {
		j.met.VecPipelines.Inc()
	}
	reused, err := j.openBuild()
	if err != nil {
		return err
	}
	if j.met != nil && j.share != nil {
		if reused {
			j.met.BuildsReused.Inc()
		} else {
			j.met.BuildsMade.Inc()
		}
	}
	if j.buildLeft && j.leftOuter {
		j.matched = make([]bool, j.nbuild)
	}
	nb, np := len(j.build.proj), len(j.probe.proj)
	j.out.Cols = make([]types.Vec, nb+np)
	j.gath = make([]types.Vec, nb+np)
	j.pairP, j.pairB, j.pairPos = j.pairP[:0], j.pairB[:0], 0
	j.probeDone, j.tailPos = false, 0
	return j.probe.open()
}

// openBuild makes the build, or takes the one its slot holds when that
// still holds (buildShare.reusable) and charges its bytes to the query
// budget, and reports whether it reused one. A build made publishes
// itself to its slot.
func (j *joinSource) openBuild() (bool, error) {
	var v uint64
	if j.share != nil {
		var sb *sharedBuild
		if sb, v = j.share.reusable(); sb != nil {
			j.hashBuild = sb.hashBuild
			j.keys = sb.keys.forProbe()
			return true, j.acct.add(j.bytes)
		}
	}
	if err := j.buildTable(); err != nil {
		return false, err
	}
	var pass []bool // per build row: the folded filter holds
	j.nullPass = true
	if j.filt != nil {
		var err error
		if pass, err = j.filterBuild(); err != nil {
			return false, err
		}
	}
	j.bytes = j.acct.bytes()
	if j.stats != nil {
		j.stats.BuildRows, j.stats.BuildBytes = int64(len(j.rows)), j.bytes
		if j.buildLeft {
			j.stats.BuildRows = int64(j.nbuild)
		}
		if pass != nil {
			j.stats.BuildFiltered, j.stats.BuildPass = true, j.passed(pass)
		}
	}
	j.layout(pass)
	if j.share != nil {
		j.share.publish(j.hashBuild, v)
	}
	return false, nil
}

// buildTable drains the build source into the column store, meters its
// columnar bytes against the query budget (every build row, NULL keys
// included, as the row joins meter every drained row), checks
// cancellation once per batch, and indexes the non-NULL keys in build
// order.
func (j *joinSource) buildTable() error {
	j.cols, j.nbuild = make([]buildCol, len(j.build.proj)), 0
	j.keys = newKeyIndex(len(j.bkc), false, &j.acct)
	j.keyOf = j.keyOf[:0]
	shared := -1 // the stored column whose ids are its key ids
	for k, bc := range j.build.proj {
		if len(j.bkc) == 1 && bc == j.bkc[0] && j.store[k] {
			shared = k
			break
		}
	}
	var all []int32
	err := forEachBatch(j.build, func(b *Batch) error {
		if err := j.gov.Err(); err != nil {
			return err
		}
		rows := liveRows(b, &all)
		base := len(j.keyOf)
		var err error
		if j.keyOf, err = j.keys.insert(b, j.bkc, rows, j.keyOf); err != nil {
			return err
		}
		bytes := 4 * int64(len(rows)) // hash-table row index
		for k, ci := range j.build.proj {
			if !j.store[k] {
				continue
			}
			var ids []int32
			if k == shared {
				ids = j.keyOf[base:]
			}
			n, err := j.cols[k].appendRows(b, ci, rows, ids, &j.acct)
			if err != nil {
				return err
			}
			bytes += n
		}
		j.nbuild += len(rows)
		return j.acct.add(bytes)
	})
	if err != nil {
		return err
	}
	for k := range j.cols {
		c := &j.cols[k]
		if c.vec.Typ == types.TString {
			c.vec.Dict = types.NewDictView(c.dict, nil)
		}
		c.strs = keyIndex{}
	}
	j.groupRows(j.keys.size())
	return nil
}

// groupRows lays the indexed build rows out by key id (a counting sort of
// keyOf over nkeys ids), each id's rows in build order.
func (j *joinSource) groupRows(nkeys int) {
	j.off = make([]int32, nkeys+1)
	for _, id := range j.keyOf {
		if id >= 0 {
			j.off[id+1]++
		}
	}
	for k := 1; k <= nkeys; k++ {
		j.off[k] += j.off[k-1]
	}
	j.rows = make([]int32, j.off[nkeys])
	next := slices.Clone(j.off[:nkeys])
	for bi, id := range j.keyOf {
		if id >= 0 {
			j.rows[next[id]] = int32(bi)
			next[id]++
		}
	}
	j.keyOf = nil
}

// filterBuild evaluates the folded filter once per build row, in
// batch-size chunks over the column store, and once over a one-row
// all-NULL extension (nullPass), metering the pass bits against the
// query budget. It returns the pass bit of each build row.
func (j *joinSource) filterBuild() ([]bool, error) {
	if err := j.acct.add(int64(j.nbuild)); err != nil {
		return nil, err
	}
	pass := make([]bool, j.nbuild)
	sc := newVecScratch(j.over)
	var from []int32
	for lo := 0; lo < j.nbuild; lo += j.batchSize {
		if err := j.gov.Err(); err != nil {
			return nil, err
		}
		from = from[:0]
		for r := lo; r < min(lo+j.batchSize, j.nbuild); r++ {
			from = append(from, int32(r))
		}
		for _, k := range j.filterRows(sc, from) {
			pass[lo+int(k)] = true
		}
	}
	j.nullPass = len(j.filterRows(sc, []int32{-1})) > 0
	return pass, nil
}

// filterRows gathers the build rows from (-1: an all-NULL row) into the
// scratch batch at the join's output positions and returns the batch
// rows the folded filter keeps.
func (j *joinSource) filterRows(sc *vecScratch, from []int32) []int32 {
	b := &sc.batch
	b.N = len(from)
	to := iota32(&sc.allIdx, len(from))
	for _, k := range j.filtCols {
		gatherVec(&b.Cols[j.buildOff+k], &j.cols[k].vec, len(from), to, from)
	}
	return sc.narrow(j.filt, b, to)
}

// passed counts the build rows EXPLAIN ANALYZE reports as build_rows
// (those indexed; all of them when building left) that pass the folded
// filter.
func (j *joinSource) passed(pass []bool) int64 {
	var n int64
	if j.buildLeft {
		for _, p := range pass {
			if p {
				n++
			}
		}
		return n
	}
	for _, bi := range j.rows {
		if pass[bi] {
			n++
		}
	}
	return n
}

// filtered is a unique build's outcome for a key whose build row fails
// the folded filter.
const filtered int32 = -2

// layout folds the folded filter's pass bits (nil without one) into the
// build layout. When every key id has one build row — an n:1 association
// — id k's row is rows[k], and a failing row becomes filtered, so a probe
// key resolves to its outcome in one lookup. Otherwise a failing row
// stays in rows as ^row: still a match before the filter, never a pair.
func (j *joinSource) layout(pass []bool) {
	j.unique = len(j.rows) == len(j.off)-1
	for i, bi := range j.rows {
		switch {
		case pass == nil || pass[bi]:
		case j.unique:
			j.rows[i] = filtered
		default:
			j.rows[i] = ^bi
		}
	}
}

func (j *joinSource) next() (*Batch, error) {
	for {
		if err := j.gov.Err(); err != nil {
			return nil, err
		}
		if j.pairPos < len(j.pairP) {
			return j.emitPairs(), nil
		}
		if !j.probeDone {
			pb, err := j.probe.next()
			if err != nil {
				return nil, err
			}
			if pb == nil {
				j.probeDone = true
				continue
			}
			if out := j.probeBatch(pb); out != nil {
				return out, nil
			}
			continue
		}
		// Probe exhausted: NULL-extend unmatched build rows (build-left
		// LEFT OUTER), in build order.
		if j.matched != nil {
			if out := j.tail(); out != nil {
				return out, nil
			}
		}
		return j.emit(nil), nil
	}
}

// probeBatch joins one probe batch. The pairs replicate the row joins'
// emission: build-right emits probe++build per match (NULL-extending an
// unmatched probe row under LEFT OUTER); build-left emits build++probe
// for matches only, leaving unmatched build rows for the tail sweep. A
// folded filter drops the pairs whose build row fails it, and the NULL
// extensions when the all-NULL row fails it; a probe row whose matches
// all fail is dropped, not NULL-extended, as the Filter above the join
// would drop its joined rows. Without a fan-out row the result is the
// probe batch itself, narrowed, with the build columns gathered beside
// it; with one, the pairs are emitted in chunks. Nil means the batch
// produced no rows.
//
// Each live probe row takes one key lookup (keyIndex.lookup). Under a
// unique build its id yields the row's outcome and the row takes at most
// one append; otherwise the id's rows are walked.
func (j *joinSource) probeBatch(pb *Batch) *Batch {
	j.pb, j.pairPos = pb, 0
	live := liveRows(pb, &j.all)
	j.ids = j.keys.lookup(pb, j.pkc, live, j.ids[:0])
	extend := j.leftOuter && !j.buildLeft
	unique, matched := j.unique, j.matched
	pairP, pairB := j.pairP[:0], j.pairB[:0]
	fanout := false
	dropped := 0 // joined rows the folded filter removed
	for k, ri := range live {
		o := j.ids[k]
		if o >= 0 && unique {
			o = j.rows[o]
		}
		switch {
		case o >= 0 && unique:
			pairP, pairB = append(pairP, ri), append(pairB, o)
			if matched != nil {
				matched[o] = true
			}
		case o >= 0:
			hits := 0
			for _, bi := range j.rows[j.off[o]:j.off[o+1]] {
				if bi < 0 {
					dropped++
					continue
				}
				hits++
				pairP, pairB = append(pairP, ri), append(pairB, bi)
				if matched != nil {
					matched[bi] = true
				}
			}
			fanout = fanout || hits > 1
		case o == filtered:
			dropped++
		case !extend:
		case j.nullPass:
			pairP, pairB = append(pairP, ri), append(pairB, -1)
		default:
			dropped++
		}
	}
	j.pairP, j.pairB = pairP, pairB
	if j.countRows {
		// The join's own rows are counted before its folded filter, so
		// EXPLAIN ANALYZE shows the Filter's rows apart from the join's.
		j.stats.Rows += int64(dropped)
	}
	if len(j.pairP) == 0 {
		return nil
	}
	if fanout {
		return j.emitPairs()
	}
	j.pairPos = len(j.pairP)
	out := &j.out
	for k, ci := range j.probe.proj {
		out.Cols[j.probeOff+k] = pb.Cols[ci]
	}
	j.gatherBuild(pb.N, j.pairP, j.pairB)
	out.N, out.Sel, out.HasSel = pb.N, j.pairP, true
	return j.emit(out)
}

// emitPairs emits the next chunk of pending pairs, gathering both sides.
func (j *joinSource) emitPairs() *Batch {
	lo := j.pairPos
	hi := min(lo+j.batchSize, len(j.pairP))
	j.pairPos = hi
	n := hi - lo
	to := iota32(&j.all, n)
	for k, ci := range j.probe.proj {
		if !j.keep[j.probeOff+k] {
			continue
		}
		g := &j.gath[j.probeOff+k]
		gatherVec(g, &j.pb.Cols[ci], n, to, j.pairP[lo:hi])
		j.out.Cols[j.probeOff+k] = *g
	}
	j.gatherBuild(n, to, j.pairB[lo:hi])
	j.out.N, j.out.Sel, j.out.HasSel = n, nil, false
	return j.emit(&j.out)
}

// tail emits the next chunk of unmatched build rows, NULL-extended on
// the probe side, or nil when the sweep is done.
func (j *joinSource) tail() *Batch {
	rows := j.pairB[:0]
	for j.tailPos < j.nbuild && len(rows) < j.batchSize {
		if !j.matched[j.tailPos] {
			rows = append(rows, int32(j.tailPos))
		}
		j.tailPos++
	}
	j.pairB = rows
	n := len(rows)
	if n == 0 {
		return nil
	}
	for k, ci := range j.probe.proj {
		if !j.keep[j.probeOff+k] {
			continue
		}
		// Keep the probe columns' vector types, so every batch of the
		// stream lays a column out alike (a build above appends them).
		typ := j.probeTyps[k]
		if j.pb != nil {
			typ = j.pb.Cols[ci].Typ
		}
		g := &j.gath[j.probeOff+k]
		g.Reset(typ, n)
		for i := 0; i < n; i++ {
			g.SetNull(i)
		}
		j.out.Cols[j.probeOff+k] = *g
	}
	j.gatherBuild(n, iota32(&j.all, n), rows)
	j.out.N, j.out.Sel, j.out.HasSel = n, nil, false
	return j.emit(&j.out)
}

// gatherBuild gathers the kept build columns into the output batch:
// build row from[k] lands at output row to[k].
func (j *joinSource) gatherBuild(n int, to, from []int32) {
	for k := range j.cols {
		if !j.keep[j.buildOff+k] {
			continue
		}
		g := &j.gath[j.buildOff+k]
		gatherVec(g, &j.cols[k].vec, n, to, from)
		j.out.Cols[j.buildOff+k] = *g
	}
}

func (j *joinSource) close() {
	j.build.close()
	j.probe.close()
	if j.cols == nil {
		return
	}
	j.release(&j.acct)
	j.hashBuild, j.matched, j.pb = hashBuild{}, nil, nil
}

// rowJoinSource is every join the hash join does not take — semi, anti,
// NOT IN, cross, non-equi, or one with a residual — as a batch source:
// the row join (joinIter) over row adapters of its two input pipelines,
// its rows packed into batches of the plan's column types. Those joins'
// semantics (NOT IN's NULL rule, residual short-circuits and errors,
// LEFT OUTER extension, emission order) so have one implementation, the
// row reference's. A join error after some rows is returned once the
// rows before it have gone out, as the row executor raises it.
type rowJoinSource struct {
	join *joinIter
	rows []types.Row
	pend error
	srcStats
	rowPacker
}

func (r *rowJoinSource) open() error {
	defer r.timeOpen()()
	r.pend = nil
	err := r.join.Open()
	if err == nil && r.stats != nil {
		r.stats.BuildRows, r.stats.BuildBytes = r.join.buildStats()
	}
	return err
}

func (r *rowJoinSource) next() (*Batch, error) {
	if err := r.pend; err != nil {
		r.pend = nil
		return nil, err
	}
	r.rows = r.rows[:0]
	for len(r.rows) < r.size {
		row, ok, err := r.join.Next()
		if err != nil {
			if len(r.rows) == 0 {
				return nil, err
			}
			r.pend = err
			break
		}
		if !ok {
			break
		}
		r.rows = append(r.rows, row)
	}
	pos := 0
	return r.emit(r.pack(r.rows, &pos)), nil
}

func (r *rowJoinSource) close() {
	if n := r.join.memBytes(); r.stats != nil && n > 0 {
		r.stats.MemBytes = n
	}
	r.join.Close()
	r.rows = nil
}
