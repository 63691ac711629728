package exec

import (
	"vdm/internal/types"
)

// Vectorized hash join: both inputs are batch pipelines, the build side
// is swept batch-at-a-time into a hash table keyed on typed values
// (int64 for integer-tagged keys, the raw string for dictionary keys,
// Value.AppendKey bytes otherwise), and the probe side streams batches
// through the table. Emission order, NULL-key handling, LEFT OUTER
// extension, and build-side metering replicate hashJoinIter (build
// right, probe left) and hashJoinBuildLeftIter (build left, probe
// right) exactly, so results are row- and order-identical to the row
// executor. The probe streams: one probe batch is decoded and joined at
// a time, so a LIMIT above stops the probe scan early.

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

type vecHashJoinIter struct {
	build, probe *vecSpec
	// buildLeft: the hash side is the plan's left input (the optimizer's
	// BuildLeft choice); otherwise the conventional build-right layout.
	buildLeft bool
	leftOuter bool
	// key positions within the decoded build/probe rows.
	buildKeyPos, probeKeyPos []int
	keyKind                  uint8
	rightWidth               int // NULL-extension width for outer rows
	// proj, when non-nil, projects the logical left++right output row
	// down to the given combined positions during emission (a fused
	// parent Project of bare column refs); nil emits the full row.
	proj      []int
	arena     rowArena
	batchSize int
	met       *Metrics
	gov       *Governance
	acct      memAcct

	buildRows []types.Row
	intTable  map[int64][]int32
	strTable  map[string][]int32
	matched   []bool // buildLeft && leftOuter
	keyBuf    []byte

	// probe state
	sc        *vecScratch
	unpin     func()
	total     int
	pos       int
	probeRows []types.Row
	probeIdx  int
	pending   []types.Row
	pendPos   int
	tailPos   int
}

func (j *vecHashJoinIter) Open() error {
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
	if j.buildLeft && j.leftOuter {
		j.matched = make([]bool, len(j.buildRows))
	}
	j.unpin = j.probe.snap.Pin()
	j.total = j.probe.snap.NumRowVersions()
	j.pos, j.probeIdx, j.probeRows = 0, 0, nil
	j.pending, j.pendPos, j.tailPos = nil, 0, 0
	j.sc = newVecScratch(j.probe)
	return nil
}

// buildTable sweeps the build pipeline's batches, materializes the rows
// in scan order, meters them against the query budget (every build row,
// NULL keys included — exactly what the row joins' drain loops meter),
// and indexes the non-NULL keys.
func (j *vecHashJoinIter) buildTable() error {
	unpin := j.build.snap.Pin()
	defer unpin()
	sc := newVecScratch(j.build)
	total := j.build.snap.NumRowVersions()
	for pos := 0; pos < total; pos += j.batchSize {
		if err := j.build.fill(pos, pos+j.batchSize, sc); err != nil {
			return err
		}
		j.buildRows = j.build.decodeRows(sc, j.buildRows)
	}
	switch j.keyKind {
	case jkInt:
		j.intTable = make(map[int64][]int32, len(j.buildRows))
	default:
		j.strTable = make(map[string][]int32, len(j.buildRows))
	}
	for idx, row := range j.buildRows {
		if err := j.acct.add(rowBytes(row)); err != nil {
			return err
		}
		switch j.keyKind {
		case jkInt:
			v := row[j.buildKeyPos[0]]
			if v.IsNull() {
				continue // NULL keys never match
			}
			k := v.Int()
			j.intTable[k] = append(j.intTable[k], int32(idx))
		case jkStr:
			v := row[j.buildKeyPos[0]]
			if v.IsNull() {
				continue
			}
			k := v.Str()
			j.strTable[k] = append(j.strTable[k], int32(idx))
		default:
			key, null := j.appendKeyAt(row, j.buildKeyPos)
			if null {
				continue
			}
			j.strTable[string(key)] = append(j.strTable[string(key)], int32(idx))
		}
	}
	return nil
}

// appendKeyAt encodes the key values at the given row positions into
// the shared key buffer; null is true when any key value is NULL (the
// row never matches, mirroring appendEvalKey).
func (j *vecHashJoinIter) appendKeyAt(row types.Row, pos []int) ([]byte, bool) {
	j.keyBuf = j.keyBuf[:0]
	for _, p := range pos {
		v := row[p]
		if v.IsNull() {
			return nil, true
		}
		j.keyBuf = v.AppendKey(j.keyBuf)
	}
	return j.keyBuf, false
}

// lookup returns the build-row indexes matching the probe row's key, in
// build insertion order (= build scan order, like the row joins).
func (j *vecHashJoinIter) lookup(row types.Row) []int32 {
	switch j.keyKind {
	case jkInt:
		v := row[j.probeKeyPos[0]]
		if v.IsNull() {
			return nil
		}
		return j.intTable[v.Int()]
	case jkStr:
		v := row[j.probeKeyPos[0]]
		if v.IsNull() {
			return nil
		}
		return j.strTable[v.Str()]
	default:
		key, null := j.appendKeyAt(row, j.probeKeyPos)
		if null {
			return nil
		}
		return j.strTable[string(key)]
	}
}

// rowArena chunk-allocates output row backing so a joined batch costs a
// handful of allocations instead of one per row. Rows handed out are
// immutable after emission, so retaining the chunk is safe.
type rowArena struct{ buf []types.Value }

// arenaChunkRows sizes arena chunks in output rows.
const arenaChunkRows = 256

func (a *rowArena) take(n int) types.Row {
	if len(a.buf) < n {
		a.buf = make([]types.Value, arenaChunkRows*n)
	}
	r := types.Row(a.buf[:n:n])
	a.buf = a.buf[n:]
	return r
}

// outRow assembles one output row from the logical left and right
// halves, applying the fused projection when present. right == nil
// NULL-extends to rightWidth (the row joins' outer-row shape).
func (j *vecHashJoinIter) outRow(left, right types.Row) types.Row {
	if j.proj == nil {
		out := j.arena.take(len(left) + j.rightWidth)
		copy(out, left)
		if right != nil {
			copy(out[len(left):], right)
		} else {
			for i := len(left); i < len(out); i++ {
				out[i] = types.NewNull(types.TNull)
			}
		}
		return out
	}
	out := j.arena.take(len(j.proj))
	for i, p := range j.proj {
		switch {
		case p < len(left):
			out[i] = left[p]
		case right != nil:
			out[i] = right[p-len(left)]
		default:
			out[i] = types.NewNull(types.TNull)
		}
	}
	return out
}

// emitProbe appends the join output for one probe row to dst, updating
// the matched bitmap in build-left mode. The emitted shapes replicate
// the row joins: build-right emits probe++build (NULL-extending
// unmatched probes under LEFT OUTER); build-left emits build++probe for
// matches only, leaving unmatched build rows for the tail sweep. Both
// orders are the plan's left++right, since the build side is whichever
// input the optimizer chose to materialize.
func (j *vecHashJoinIter) emitProbe(row types.Row, matches []int32, dst []types.Row) []types.Row {
	if j.buildLeft {
		for _, bi := range matches {
			if j.matched != nil {
				j.matched[bi] = true
			}
			dst = append(dst, j.outRow(j.buildRows[bi], row))
		}
		return dst
	}
	for _, bi := range matches {
		dst = append(dst, j.outRow(row, j.buildRows[bi]))
	}
	if len(matches) == 0 && j.leftOuter {
		dst = append(dst, j.outRow(row, nil))
	}
	return dst
}

// tailRow emits the next unmatched build row, NULL-extended (build-left
// LEFT OUTER only), advancing tailPos.
func (j *vecHashJoinIter) tailRow() (types.Row, bool) {
	for j.tailPos < len(j.buildRows) {
		bi := j.tailPos
		j.tailPos++
		if j.matched[bi] {
			continue
		}
		return j.outRow(j.buildRows[bi], nil), true
	}
	return nil, false
}

func (j *vecHashJoinIter) Next() (types.Row, bool, error) {
	for {
		if j.pendPos < len(j.pending) {
			row := j.pending[j.pendPos]
			j.pendPos++
			return row, true, nil
		}
		if j.probeIdx < len(j.probeRows) {
			row := j.probeRows[j.probeIdx]
			j.probeIdx++
			j.pending = j.emitProbe(row, j.lookup(row), j.pending[:0])
			j.pendPos = 0
			continue
		}
		if j.pos < j.total {
			hi := j.pos + j.batchSize
			if err := j.probe.fill(j.pos, hi, j.sc); err != nil {
				return nil, false, err
			}
			j.pos = hi
			j.probeRows = j.probe.decodeRows(j.sc, j.probeRows[:0])
			j.probeIdx = 0
			continue
		}
		// Probe exhausted: NULL-extend unmatched build rows (build-left
		// LEFT OUTER), in build order.
		if j.matched != nil {
			if row, ok := j.tailRow(); ok {
				return row, true, nil
			}
		}
		return nil, false, nil
	}
}

func (j *vecHashJoinIter) Close() {
	if j.unpin != nil {
		j.unpin()
		j.unpin = nil
	}
	j.acct.close()
	j.buildRows = nil
	j.intTable = nil
	j.strTable = nil
	j.pending = nil
	j.probeRows = nil
}

// buildStats mirrors the row joins: build-left counts every
// materialized build row; build-right counts only table-indexed rows
// (NULL keys excluded), like hashJoinIter.
func (j *vecHashJoinIter) buildStats() (int64, int64) {
	if j.buildLeft {
		return rowSetBytes(j.buildRows)
	}
	var n, bytes int64
	count := func(idxs []int32) {
		for _, bi := range idxs {
			n++
			bytes += rowBytes(j.buildRows[bi])
		}
	}
	if j.intTable != nil {
		for _, idxs := range j.intTable {
			count(idxs)
		}
	} else {
		for _, idxs := range j.strTable {
			count(idxs)
		}
	}
	return n, bytes
}

func (j *vecHashJoinIter) memBytes() int64 { return j.acct.bytes() }
