// Package registry keeps one cluster of the live tier consolidated while
// subscribers add and remove UDFs: it owns the query set, its delta
// snapshots and their publication, and hands every rebuild to
// consolidate.Prepare — the one merge-tree builder, compile and guard
// synthesis — with a persistent consolidate.Memo.
//
// The paper consolidates a fixed batch of programs offline; a service
// re-running All over all N programs on every subscription change would
// waste exactly the work the divide-and-conquer tree already did. A
// rebuild instead re-merges only the O(log N) nodes whose leaves changed —
// every other subtree is reused from the memo, keyed by its position and
// the query ids it covers, and the shared smt.Cache answers the re-proved
// entailments.
//
// A Registry is passive: it starts no goroutine and rebuilds only when its
// owner calls Rebuild or Flush. The owner is internal/shard, which assigns
// the query ids, rebuilds the dirty clusters when its own caller calls
// Rebuild or Flush, and publishes every cluster's snapshot under the one
// generation number.
//
// Between a change and the next completed rebuild the query set stays
// *live* through delta snapshots: the stale consolidated
// program keeps running, queries added since the last build run verbatim
// alongside it (sound: verbatim is exactly sequential execution, the work
// bound of DESIGN.md's work-bounds extension), and queries removed since
// are suppressed by id.
//
// Leaves are the (QueryID, program) pairs in slot order; as in
// consolidate.All, the leaf in slot i has locals q<i>_ and notifies i, and
// Snapshot.Slots maps slots back to query ids. Slots use swap-remove:
// removing a query moves the last leaf into its slot, so a removal dirties
// two root paths instead of shifting every later leaf, and only the moved
// query is prepared again. After Flush the consolidated program is
// byte-identical to consolidate.Build run from scratch over Leaves().
package registry

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/smt"
)

// QueryID is the stable handle of one subscribed query, assigned by the
// registry's owner (the shard's QueryID). Ids are never reused, which is
// what lets the memo key merge nodes by the ids they cover.
type QueryID uint64

// Options configures a Registry.
type Options struct {
	// Consolidate are the base consolidation options. Cache is shared
	// across all rebuilds (nil creates one); Solver must be nil — the
	// registry runs pair workers in parallel against the shared cache.
	Consolidate consolidate.Options
	// Workers bounds concurrent pair re-merges during a rebuild; 0 means
	// GOMAXPROCS.
	Workers int
	// Prefilter, when non-nil, makes every rebuild synthesize an admission
	// pre-filter for the consolidated program and publish it with the
	// snapshot (Snapshot.Guard). Callers typically set Coster to the
	// dataset and MaxCallCost to its lite-decode bound; a nil Cache/Solver
	// is backed by the registry's shared SMT cache. Delta snapshots carry
	// the stale guard forward — sound, because the guard gates only the
	// unchanged Merged program, and pending queries always run verbatim.
	Prefilter *prefilter.Options
}

// PendingQuery is one subscribed query, compiled at Add. In a snapshot's
// Pending it was added after the current consolidated program was built,
// and the engine runs it verbatim alongside the stale program until the
// next rebuild lands.
type PendingQuery struct {
	ID       QueryID
	Program  *lang.Program
	Compiled *lang.Compiled
	// NotifyID is the id the verbatim program broadcasts (its own,
	// pre-renumbering id).
	NotifyID int
}

// BuildStats describes one incremental rebuild: the merge tree's
// consolidate.MultiStats — Programs is the number of live queries
// consolidated, and a clean incremental rebuild after one change
// recomputes O(log N) Pairs and serves every other node from the memo
// (NodesReused) — plus what the rebuild adds.
type BuildStats struct {
	consolidate.MultiStats
	// BuildTime is the whole rebuild, guard synthesis included; the
	// embedded Duration is the merge tree's alone.
	BuildTime time.Duration
	// PrefilterTime is the time guard synthesis took (zero when disabled);
	// GuardTrivial reports whether it degraded to the admit-all guard and
	// GuardCost the static per-record cost of the synthesized guard.
	PrefilterTime time.Duration
	GuardTrivial  bool
	GuardCost     int64
}

// Snapshot is one published state of the cluster: an immutable view the
// engine can evaluate records against. A snapshot is *clean* when it
// reflects exactly the live query set; after a change and before the next
// rebuild it is a stale plan plus a pending/removed delta that keeps the
// notification set exact.
type Snapshot struct {
	// Plan is the prepared built query set, with notification ids
	// renumbered to slot positions; the zero Plan (nil Merged) when the
	// built set was empty. Its Guard (nil when Options.Prefilter is unset)
	// remains valid on delta snapshots: it gates only Merged, which deltas
	// share, while Pending queries bypass it by running verbatim.
	consolidate.Plan
	// Slots maps the merged program's notification ids (slot positions at
	// build time) to query ids.
	Slots []QueryID
	// Pending queries joined after Merged was built and run verbatim.
	Pending []PendingQuery
	// Removed marks built queries that have since unsubscribed; their
	// notifications must be suppressed.
	Removed map[QueryID]bool
	// Build describes the rebuild that produced Merged.
	Build BuildStats
}

// Clean reports whether the snapshot reflects exactly the live set.
func (s *Snapshot) Clean() bool { return len(s.Pending) == 0 && len(s.Removed) == 0 }

// LiveIDs returns the query ids subscribed in this generation, i.e. the
// built slots minus Removed plus Pending.
func (s *Snapshot) LiveIDs() []QueryID {
	out := make([]QueryID, 0, len(s.Slots)+len(s.Pending))
	for _, id := range s.Slots {
		if !s.Removed[id] {
			out = append(out, id)
		}
	}
	for _, p := range s.Pending {
		out = append(out, p.ID)
	}
	return out
}

// Stats summarises registry activity.
type Stats struct {
	Size    int
	Adds    uint64
	Removes uint64
	Builds  uint64
	// PairsMerged / NodesReused accumulate over all rebuilds.
	PairsMerged    uint64
	NodesReused    uint64
	TotalBuildTime time.Duration
	LastBuild      BuildStats
	// CachedNodes is the memo's merge-node count (N−1 after a clean
	// rebuild; sibling programs kept for the next incremental pass).
	CachedNodes int
}

// Registry is one incrementally consolidated query set. All methods are
// safe for concurrent use. Programs handed to Add must not be mutated
// afterwards.
type Registry struct {
	opts Options

	mu           sync.Mutex     // guards the fields below
	entries      []PendingQuery // slot order; the surviving set
	slotOf       map[QueryID]int
	version      uint64 // bumped on every Add/Remove
	builtVersion uint64 // version the published Merged reflects
	stats        Stats

	snap atomic.Pointer[Snapshot]

	// buildMu serialises rebuilds, as a shared Memo requires.
	buildMu sync.Mutex
	memo    *consolidate.Memo
}

// New creates an empty registry.
func New(opts Options) (*Registry, error) {
	if opts.Consolidate.Solver != nil {
		return nil, fmt.Errorf("registry: Options.Consolidate.Solver is not supported; share a Cache instead")
	}
	// Remaining consolidation options default inside consolidate.New,
	// identically for every pair the builder merges.
	if opts.Consolidate.Cache == nil {
		opts.Consolidate.Cache = smt.NewCache(0)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if pf := opts.Prefilter; pf != nil && pf.Solver == nil && pf.Cache == nil {
		guard := *pf
		guard.Cache = opts.Consolidate.Cache
		opts.Prefilter = &guard
	}
	r := &Registry{
		opts:   opts,
		slotOf: map[QueryID]int{},
		memo:   consolidate.NewMemo(),
	}
	r.snap.Store(&Snapshot{})
	return r, nil
}

// Snapshot returns the current generation; the returned value is
// immutable. The engine sees it through the owning shard snapshot, loaded
// once per batch.
func (r *Registry) Snapshot() *Snapshot { return r.snap.Load() }

// Size reports the number of live queries.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Leaves returns the surviving queries as (QueryID, program) leaves in
// slot order — what a from-scratch consolidate.Build must be given to
// reproduce the registry's consolidated program byte for byte.
func (r *Registry) Leaves() []consolidate.Leaf {
	r.mu.Lock()
	defer r.mu.Unlock()
	return leavesOf(r.entries)
}

func leavesOf(ents []PendingQuery) []consolidate.Leaf {
	out := make([]consolidate.Leaf, len(ents))
	for i, e := range ents {
		out[i] = consolidate.Leaf{ID: int(e.ID), Prog: e.Program}
	}
	return out
}

// Stats snapshots registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	s.Size = len(r.entries)
	r.mu.Unlock()
	r.buildMu.Lock()
	s.CachedNodes = r.memo.Nodes()
	r.buildMu.Unlock()
	return s
}

// Add subscribes a query under id, which the owner assigns: the program
// joins the live set immediately (a delta snapshot runs it verbatim from the
// next admitted batch on); the next Rebuild folds it into the merged
// program. An id that is already live is rejected. The memo keys leaves and
// merge nodes by id, so an id must always name the same program — a
// monotone counter that never reuses an id satisfies that.
func (r *Registry) Add(id QueryID, p *lang.Program) error {
	if p == nil {
		return fmt.Errorf("registry: nil program")
	}
	ids := lang.NotifyIDs(p.Body)
	if len(ids) != 1 {
		return fmt.Errorf("registry: query %s must notify exactly one id, has %d", p.Name, len(ids))
	}
	notifyID := 0
	for id := range ids {
		notifyID = id
	}
	for _, prm := range p.Params {
		if lang.AssignedVars(p.Body)[prm] {
			return fmt.Errorf("registry: query %s assigns parameter %q", p.Name, prm)
		}
	}
	compiled, err := lang.Compile(p)
	if err != nil {
		return fmt.Errorf("registry: compiling %s: %w", p.Name, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.slotOf[id]; ok {
		return fmt.Errorf("registry: query id %d is already live", id)
	}
	if len(r.entries) > 0 && !slices.Equal(r.entries[0].Program.Params, p.Params) {
		return fmt.Errorf("registry: query %s takes parameters %v, registry uses %v", p.Name, p.Params, r.entries[0].Program.Params)
	}
	e := PendingQuery{ID: id, Program: p, Compiled: compiled, NotifyID: notifyID}
	r.slotOf[id] = len(r.entries)
	r.entries = append(r.entries, e)
	r.version++
	r.stats.Adds++

	cur := r.snap.Load()
	next := *cur
	next.Pending = append(append([]PendingQuery(nil), cur.Pending...), e)
	r.snap.Store(&next)
	return nil
}

// Remove unsubscribes a query: its notifications stop with the next
// admitted batch (delta snapshot); the next Rebuild drops it from the
// merged program. The last leaf is swapped into the freed slot, so only two
// leaf-to-root paths need re-merging.
func (r *Registry) Remove(id QueryID) error {
	r.mu.Lock()
	slot, ok := r.slotOf[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("registry: unknown query id %d", id)
	}
	last := len(r.entries) - 1
	if slot != last {
		r.entries[slot] = r.entries[last]
		r.slotOf[r.entries[slot].ID] = slot
	}
	r.entries = r.entries[:last]
	delete(r.slotOf, id)
	r.version++
	r.stats.Removes++

	cur := r.snap.Load()
	next := *cur
	wasPending := false
	for _, p := range cur.Pending {
		if p.ID == id {
			wasPending = true
			break
		}
	}
	if wasPending {
		next.Pending = make([]PendingQuery, 0, len(cur.Pending)-1)
		for _, p := range cur.Pending {
			if p.ID != id {
				next.Pending = append(next.Pending, p)
			}
		}
	} else {
		next.Removed = make(map[QueryID]bool, len(cur.Removed)+1)
		for k := range cur.Removed {
			next.Removed[k] = true
		}
		next.Removed[id] = true
	}
	r.snap.Store(&next)
	r.mu.Unlock()
	return nil
}

// Rebuild re-consolidates the live set now and publishes the result. Only
// merge nodes whose leaves changed since the memo's tree are recomputed. If
// queries changed concurrently during the build, the published snapshot
// carries the residual delta for the next rebuild.
func (r *Registry) Rebuild() (*Snapshot, error) {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()

	r.mu.Lock()
	ents := append([]PendingQuery(nil), r.entries...)
	v := r.version
	r.mu.Unlock()

	start := time.Now()
	snap := &Snapshot{Slots: make([]QueryID, len(ents))}
	var bs BuildStats
	if len(ents) == 0 {
		// Registry drained: the memo holds nothing reusable.
		r.memo = consolidate.NewMemo()
	} else {
		// The guard is re-synthesized on every rebuild: it is only
		// meaningful for the exact Merged it was derived from.
		plan, err := consolidate.Prepare(leavesOf(ents), r.opts.Consolidate, r.opts.Workers, r.memo, r.opts.Prefilter)
		if err != nil {
			return nil, err
		}
		snap.Plan = *plan
		bs.MultiStats = *plan.Multi
		if plan.Guard != nil {
			bs.PrefilterTime = plan.PrefilterTime
			bs.GuardTrivial = plan.Guard.Trivial
			bs.GuardCost = plan.Guard.Cost
		}
	}
	bs.BuildTime = time.Since(start)
	snap.Build = bs

	r.mu.Lock()
	defer r.mu.Unlock()
	built := make(map[QueryID]bool, len(ents))
	for i, e := range ents {
		snap.Slots[i] = e.ID
		built[e.ID] = true
	}
	// Changes that raced the build become the new snapshot's delta.
	live := make(map[QueryID]bool, len(r.entries))
	for _, e := range r.entries {
		live[e.ID] = true
		if !built[e.ID] {
			snap.Pending = append(snap.Pending, e)
		}
	}
	for _, e := range ents {
		if !live[e.ID] {
			if snap.Removed == nil {
				snap.Removed = map[QueryID]bool{}
			}
			snap.Removed[e.ID] = true
		}
	}
	r.snap.Store(snap)
	r.builtVersion = v
	r.stats.Builds++
	r.stats.PairsMerged += uint64(bs.Pairs)
	r.stats.NodesReused += uint64(bs.NodesReused)
	r.stats.TotalBuildTime += bs.BuildTime
	r.stats.LastBuild = bs
	return snap, nil
}

// Flush rebuilds until the published snapshot reflects the live set and
// returns that clean snapshot. With no concurrent churn one rebuild
// suffices.
func (r *Registry) Flush() (*Snapshot, error) {
	for {
		r.mu.Lock()
		upToDate := r.builtVersion == r.version
		r.mu.Unlock()
		if upToDate {
			if s := r.Snapshot(); s.Clean() {
				return s, nil
			}
		}
		if _, err := r.Rebuild(); err != nil {
			return nil, err
		}
	}
}
