package exec

import (
	"vdm/internal/types"
)

// Typed hash keys. All hash-based operators (joins, group-by, distinct)
// encode their key values into a reusable byte buffer with
// types.Value.AppendKey instead of building strings through fmt: the
// only allocation left on the hot path is the map-key string created
// when a key is first inserted (lookups via m[string(buf)] compile to
// an allocation-free map access).

// appendEvalKey evaluates the key expressions against row and appends
// their composite encoding to dst. null reports that at least one key
// value was NULL (equi-join keys never match then).
func appendEvalKey(dst []byte, row types.Row, keys []EvalFn) (out []byte, null bool, err error) {
	for _, fn := range keys {
		v, err := fn(row)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		dst = v.AppendKey(dst)
	}
	return dst, false, nil
}
