package exec

import (
	"time"

	"vdm/internal/types"
)

// Vectorized hash join: a batch source over two batch sources. Open
// drains the build side once into typed column vectors (string columns
// re-encoded into a build-local dictionary) and indexes the non-NULL keys
// in a hash table keyed on typed values: int64 for integer-tagged keys,
// the decoded string for string keys, Value.AppendKey bytes otherwise.
// Next streams probe batches through the table and emits joined batches
// without boxing a row:
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
// build-left tail sweep replicate hashJoinIter (build right, probe left)
// and hashJoinBuildLeftIter (build left, probe right) exactly, so
// results are row- and order-identical to the row executor. The probe
// streams, so a LIMIT above stops the probe scan early.

// Join key strategies. The typed fast paths are byte-parity with
// Value.AppendKey: TInt/TDate/TBool share the integer key tag encoding
// the raw payload (so an int column joins a date column exactly as the
// row path does), and a single string key's encoding is injective in
// the string. Everything else — decimals (which normalize), float/int
// mixes (which never match, as their tags differ), multi-column keys —
// goes through the actual AppendKey bytes.
const (
	jkInt   uint8 = iota // single key, both sides integer-tagged
	jkStr                // single key, both sides strings
	jkBytes              // AppendKey-encoded key bytes
)

// buildCol is one build-side column drained into a typed vector. String
// values are interned into a build-local dictionary, so the vector's
// codes stay valid for the join's lifetime (storage codes do not), and
// columns gathered from it are dictionary-coded like scanned ones.
type buildCol struct {
	vec   types.Vec
	n     int
	dict  []string
	index map[string]int32
	memo  epochMemo[int32] // storage code → local code, per batch
}

// appendRows appends src's rows at the given indexes and returns the
// bytes they add.
func (c *buildCol) appendRows(src *types.Vec, rows []int32) int64 {
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
		return c.appendStrings(src, rows)
	case src.Typ == types.TFloat:
		for _, ri := range rows {
			v.F64 = append(v.F64, src.F64[ri])
		}
		return 8 * n
	case src.Typ == types.TDecimal:
		for _, ri := range rows {
			v.I64 = append(v.I64, src.I64[ri])
			v.Scale = append(v.Scale, src.Scale[ri])
		}
		return 12 * n
	}
	for _, ri := range rows {
		v.I64 = append(v.I64, src.I64[ri])
	}
	return 8 * n
}

// appendStrings appends string rows as build-local codes, decoding each
// distinct storage code once per batch. NULL rows get code 0, which no
// reader looks at.
func (c *buildCol) appendStrings(src *types.Vec, rows []int32) int64 {
	bytes := 4 * int64(len(rows))
	hasNulls := len(src.Nulls) > 0
	if c.index == nil {
		// A storage dictionary bounds the distinct strings a scanned
		// column holds: size the interning map for it up front.
		c.index = make(map[string]int32, min(src.Dict.Size(), len(rows)))
	}
	if len(src.Strs) == 0 {
		c.memo.next(src.Dict.Size())
	}
	for _, ri := range rows {
		var code int32
		switch {
		case hasNulls && src.NullAt(int(ri)):
		case len(src.Strs) > 0:
			code = c.intern(src.Strs[ri], &bytes)
		default:
			sc := src.Codes[ri]
			var ok bool
			if code, ok = c.memo.get(sc); !ok {
				code = c.intern(src.Dict.Decode(sc), &bytes)
				c.memo.put(sc, code)
			}
		}
		c.vec.Codes = append(c.vec.Codes, code)
	}
	return bytes
}

// intern returns s's build-local code, adding s to the dictionary (and
// its bytes to *bytes) when it is new.
func (c *buildCol) intern(s string, bytes *int64) int32 {
	if code, ok := c.index[s]; ok {
		return code
	}
	code := int32(len(c.dict))
	c.dict = append(c.dict, s)
	c.index[s] = code
	*bytes += int64(len(s)) + 16
	return code
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
	// key positions among the build/probe outputs.
	buildKey, probeKey []int
	keyKind            uint8
	batchSize          int
	gov                *Governance
	met                *Metrics
	// stats attributes the join under EXPLAIN ANALYZE (nil when off):
	// its build size and memory always, its output rows only when
	// countRows (statIter counts them when the join is the operator it
	// wraps).
	stats     *OpStats
	countRows bool

	acct     memAcct
	cols     []buildCol // build side, one per build output column
	nbuild   int
	indexed  int64 // build rows with a non-NULL key
	intTable map[int64][]int32
	strTable map[string][]int32
	strRows  [][]int32 // jkStr during the build: rows per local code
	matched  []bool    // buildLeft && leftOuter
	bkc, pkc []int     // key batch columns of the build/probe batches
	keyBuf   []byte
	strMemo  epochMemo[[]int32] // probe key code → matches, per batch

	// probe state
	pb                 *Batch
	pairP, pairB       []int32 // output pairs: probe row, build row (-1: NULL)
	pairPos            int
	probeDone          bool
	tailPos            int
	probeOff, buildOff int // output column offsets of each side
	out                Batch
	gath               []types.Vec // gathered output columns, by position
	all                []int32
}

func (j *joinSource) open() error {
	if j.stats != nil && j.countRows {
		t0 := time.Now()
		defer func() { j.stats.OpenNs += time.Since(t0).Nanoseconds() }()
	}
	j.acct = memAcct{gov: j.gov}
	if err := j.gov.point(PointHashBuild); err != nil {
		return err
	}
	if j.met != nil {
		j.met.VecPipelines.Inc()
	}
	if err := j.buildTable(); err != nil {
		return err
	}
	if j.stats != nil {
		j.stats.BuildRows, j.stats.BuildBytes = j.indexed, j.acct.bytes()
		if j.buildLeft {
			j.stats.BuildRows = int64(j.nbuild)
		}
	}
	if j.buildLeft && j.leftOuter {
		j.matched = make([]bool, j.nbuild)
	}
	nb, np := len(j.build.proj), len(j.probe.proj)
	j.probeOff, j.buildOff = 0, np
	if j.buildLeft {
		j.probeOff, j.buildOff = nb, 0
	}
	j.out.Cols = make([]types.Vec, nb+np)
	j.gath = make([]types.Vec, nb+np)
	j.pkc = batchCols(j.probe, j.probeKey)
	j.pairP, j.pairB, j.pairPos = j.pairP[:0], j.pairB[:0], 0
	j.probeDone, j.tailPos = false, 0
	return j.probe.open()
}

// batchCols maps output positions of a pipeline to its batch columns.
func batchCols(s *vecSpec, pos []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = s.proj[p]
	}
	return out
}

// buildTable drains the build source into the column store, meters its
// columnar bytes against the query budget (every build row, NULL keys
// included, as the row joins meter every drained row), checks
// cancellation once per batch, and indexes the non-NULL keys in build
// order.
func (j *joinSource) buildTable() error {
	j.cols = make([]buildCol, len(j.build.proj))
	j.bkc = batchCols(j.build, j.buildKey)
	if j.keyKind == jkInt {
		j.intTable = make(map[int64][]int32)
	} else {
		j.strTable = make(map[string][]int32)
	}
	var all []int32
	err := forEachBatch(j.build, func(b *Batch) error {
		if err := j.gov.Err(); err != nil {
			return err
		}
		rows := liveRows(b, &all)
		bytes := 4 * int64(len(rows)) // hash-table row index
		for k, ci := range j.build.proj {
			bytes += j.cols[k].appendRows(&b.Cols[ci], rows)
		}
		j.index(b, rows)
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
		c.index, c.memo = nil, epochMemo[int32]{}
	}
	if j.keyKind == jkStr {
		dict := j.cols[j.buildKey[0]].dict
		for code, rows := range j.strRows {
			if len(rows) > 0 {
				j.strTable[dict[code]] = rows
			}
		}
		j.strRows = nil
	}
	return nil
}

// index adds the non-NULL keys of one build batch's rows, which were
// appended as build rows nbuild, nbuild+1, ….
func (j *joinSource) index(b *Batch, rows []int32) {
	switch j.keyKind {
	case jkInt:
		v := &b.Cols[j.bkc[0]]
		for r, ri := range rows {
			if v.NullAt(int(ri)) {
				continue // NULL keys never match
			}
			k := v.I64[ri]
			j.intTable[k] = append(j.intTable[k], int32(j.nbuild+r))
			j.indexed++
		}
	case jkStr:
		// The key column was just interned: index by local code, one
		// slice per distinct string, and key the table once at the end.
		c := &j.cols[j.buildKey[0]]
		for r := range rows {
			bi := j.nbuild + r
			if c.vec.NullAt(bi) {
				continue
			}
			code := c.vec.Codes[bi]
			for int(code) >= len(j.strRows) {
				j.strRows = append(j.strRows, nil)
			}
			j.strRows[code] = append(j.strRows[code], int32(bi))
			j.indexed++
		}
	default:
		for r, ri := range rows {
			key, null := appendVecKey(j.keyBuf[:0], b, j.bkc, int(ri))
			j.keyBuf = key
			if null {
				continue
			}
			j.strTable[string(key)] = append(j.strTable[string(key)], int32(j.nbuild+r))
			j.indexed++
		}
	}
}

// appendVecKey appends the AppendKey encoding of row ri's key columns to
// dst; null is true when any key value is NULL (the row never matches,
// mirroring appendEvalKey).
func appendVecKey(dst []byte, b *Batch, cols []int, ri int) ([]byte, bool) {
	for _, ci := range cols {
		v := &b.Cols[ci]
		if v.NullAt(ri) {
			return dst, true
		}
		dst = v.AppendKeyAt(dst, ri)
	}
	return dst, false
}

// lookup returns the build rows matching probe row ri's key, in build
// order (= build scan order, like the row joins).
func (j *joinSource) lookup(pb *Batch, ri int32) []int32 {
	switch j.keyKind {
	case jkInt:
		v := &pb.Cols[j.pkc[0]]
		if v.NullAt(int(ri)) {
			return nil
		}
		return j.intTable[v.I64[ri]]
	case jkStr:
		v := &pb.Cols[j.pkc[0]]
		if v.NullAt(int(ri)) {
			return nil
		}
		if len(v.Strs) > 0 {
			return j.strTable[v.Strs[ri]]
		}
		code := v.Codes[ri]
		m, ok := j.strMemo.get(code)
		if !ok {
			m = j.strTable[v.Dict.Decode(code)]
			j.strMemo.put(code, m)
		}
		return m
	}
	key, null := appendVecKey(j.keyBuf[:0], pb, j.pkc, int(ri))
	j.keyBuf = key
	if null {
		return nil
	}
	return j.strTable[string(key)]
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
		return nil, nil
	}
}

// probeBatch joins one probe batch. The pairs replicate the row joins'
// emission: build-right emits probe++build per match (NULL-extending an
// unmatched probe row under LEFT OUTER); build-left emits build++probe
// for matches only, leaving unmatched build rows for the tail sweep.
// Without a fan-out row the result is the probe batch itself, narrowed,
// with the build columns gathered beside it; with one, the pairs are
// emitted in chunks. Nil means the batch produced no rows.
func (j *joinSource) probeBatch(pb *Batch) *Batch {
	j.pb = pb
	j.pairP, j.pairB, j.pairPos = j.pairP[:0], j.pairB[:0], 0
	if j.keyKind == jkStr {
		if v := &pb.Cols[j.pkc[0]]; len(v.Strs) == 0 {
			j.strMemo.next(v.Dict.Size())
		}
	}
	fanout := false
	for _, ri := range liveRows(pb, &j.all) {
		m := j.lookup(pb, ri)
		if len(m) == 0 {
			if j.leftOuter && !j.buildLeft {
				j.pairP, j.pairB = append(j.pairP, ri), append(j.pairB, -1)
			}
			continue
		}
		fanout = fanout || len(m) > 1
		for _, bi := range m {
			j.pairP, j.pairB = append(j.pairP, ri), append(j.pairB, bi)
			if j.matched != nil {
				j.matched[bi] = true
			}
		}
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
		// Keep the probe columns' vector types, so every batch of the
		// stream lays a column out alike (a build above appends them).
		typ := types.TNull
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

// gatherBuild gathers every build column into the output batch: build
// row from[k] lands at output row to[k].
func (j *joinSource) gatherBuild(n int, to, from []int32) {
	for k := range j.cols {
		g := &j.gath[j.buildOff+k]
		gatherVec(g, &j.cols[k].vec, n, to, from)
		j.out.Cols[j.buildOff+k] = *g
	}
}

// emit counts an output batch under EXPLAIN ANALYZE.
func (j *joinSource) emit(b *Batch) *Batch {
	if j.countRows {
		statAdd(j.stats, int64(b.NumRows()))
	}
	return b
}

func (j *joinSource) close() {
	j.build.close()
	j.probe.close()
	if j.cols == nil {
		return
	}
	if j.stats != nil {
		j.stats.MemBytes = j.acct.bytes()
	}
	j.acct.close()
	j.cols, j.intTable, j.strTable, j.matched = nil, nil, nil, nil
	j.pb = nil
}
