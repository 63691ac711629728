package exec

import (
	"slices"
	"sync"

	"vdm/internal/storage"
)

// Hash builds that outlive a statement (docs/EXECUTION.md). The
// executions of one cached plan share its equi hash joins' builds through
// a BuildStore: one slot per hash join, by its ordinal in compile order,
// which every instantiation of the plan's template keeps. A join whose
// build side is a base-table scan under filters and projections
// publishes its finished build, and a later execution reuses it while the
// build's plan nodes are the ones it was made from and no commit to its
// table lies between the two snapshots. A published build is never
// written again; each execution probes through its own copy of the key
// index's memos (keyIndex.forProbe).

// maxRetainedBuildBytes bounds the metered bytes of the builds all the
// stores of one Metrics instance (one engine) hold together. A build that
// would pass it is not published.
const maxRetainedBuildBytes = 64 << 20

// BuildStore holds the published hash builds of one cached plan. It is
// safe for concurrent use.
type BuildStore struct {
	met   *Metrics
	mu    sync.Mutex
	slots []*sharedBuild
	dead  bool // released: publishes nothing more
}

// NewBuildStore returns an empty store whose retained bytes count
// against met's RetainedBuildBytes.
func NewBuildStore(met *Metrics) *BuildStore { return &BuildStore{met: met} }

// Release drops the store's builds and makes it refuse later ones; a
// plan leaving the cache releases its store.
func (s *BuildStore) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sb := range s.slots {
		if sb != nil {
			s.met.RetainedBuildBytes.Add(-sb.bytes)
		}
	}
	s.slots, s.dead = nil, true
}

// SetBuildStore makes the hash joins of subsequent Build calls reuse and
// publish their builds through s (nil: every join builds its own).
func (b *Builder) SetBuildStore(s *BuildStore) { b.builds = s }

// sharedBuild is one published build and what it was made from: its
// table at version, which is at most the build's snapshot timestamp.
type sharedBuild struct {
	from    []any // build subtree, join condition, folded conjuncts
	tbl     *storage.Table
	version uint64
	hashBuild
}

// buildShare is a hash join's handle on its slot, set only when its build
// qualifies.
type buildShare struct {
	store *BuildStore
	slot  int
	from  []any
	snap  *storage.Snapshot // the build scan's: its table and timestamp
}

// reusable returns the slot's build when it holds for this execution,
// else nil, and the build table's version, read before any build.
func (h *buildShare) reusable() (*sharedBuild, uint64) {
	tbl, ts := h.snap.Table(), h.snap.TS()
	v := tbl.Version()
	h.store.mu.Lock()
	var sb *sharedBuild
	if h.slot < len(h.store.slots) {
		sb = h.store.slots[h.slot]
	}
	h.store.mu.Unlock()
	if sb == nil || sb.tbl != tbl || sb.version != v || sb.version > ts || !slices.Equal(sb.from, h.from) {
		return nil, v
	}
	return sb, v
}

// publish stores a build made at version v in the slot, replacing the
// slot's build, unless the store was released, the engine's retained
// bytes would pass their bound, or the snapshot predates v: a pinned
// reader's build holds rows older than v, and no later reader may take
// them for v's.
func (h *buildShare) publish(hb hashBuild, v uint64) {
	if v > h.snap.TS() {
		return
	}
	s := h.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return
	}
	if h.slot >= len(s.slots) {
		s.slots = append(s.slots, make([]*sharedBuild, h.slot+1-len(s.slots))...)
	}
	if old := s.slots[h.slot]; old != nil {
		s.met.RetainedBuildBytes.Add(-old.bytes)
		s.slots[h.slot] = nil
	}
	if !s.met.RetainedBuildBytes.AddWithin(hb.bytes, maxRetainedBuildBytes) {
		return
	}
	hb.keys = hb.keys.forProbe()
	s.slots[h.slot] = &sharedBuild{from: h.from, tbl: h.snap.Table(), version: v, hashBuild: hb}
}
