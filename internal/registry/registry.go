// Package registry is the incremental builder behind one cluster of the
// live tier: it owns the divide-and-conquer merge tree that consolidate.All
// produces and keeps a consolidated program current while UDFs are added
// and removed by subscribers.
//
// The paper consolidates a fixed batch of programs offline; a service
// re-running All over all N programs on every subscription change would
// waste exactly the work the divide-and-conquer tree already did. Rebuild
// instead re-consolidates only the O(log N) merge nodes whose leaf span
// changed — every sibling subtree is reused from a content-keyed node
// cache, and the shared smt.Cache answers the re-proved entailments.
//
// A Registry is passive: it starts no goroutine and rebuilds only when its
// owner calls Rebuild or Flush. The owner is internal/shard, which decides
// when (one debounce worker per cluster) and publishes every cluster's
// snapshot under one cross-cluster generation.
//
// Between a change and the next completed rebuild the query set stays
// *live* through generation-numbered snapshots: the stale consolidated
// program keeps running, queries added since the last build run verbatim
// alongside it (sound: verbatim is exactly sequential execution, the work
// bound of DESIGN.md's work-bounds extension), and queries removed since
// are suppressed by id.
//
// Slots use swap-remove: removing a query moves the last leaf into its
// slot, so a removal dirties two root paths instead of shifting every
// later leaf. The surviving set's order is therefore registry-defined;
// Programs() exposes it, and after Flush the consolidated program is
// byte-identical to consolidate.All run from scratch over Programs().
package registry

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/smt"
)

// QueryID is the stable handle of one subscribed query. Ids are never
// reused, which is what lets the merge-node cache key nodes by content.
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

// PendingQuery is a query added after the current consolidated program was
// built; the engine runs it verbatim alongside the stale program until the
// next generation lands.
type PendingQuery struct {
	ID       QueryID
	Program  *lang.Program
	Compiled *lang.Compiled
	// NotifyID is the id the verbatim program broadcasts (its own,
	// pre-renumbering id).
	NotifyID int
}

// BuildStats describes one incremental rebuild.
type BuildStats struct {
	Duration time.Duration
	// Leaves is the number of live queries consolidated.
	Leaves int
	// PairsMerged counts pairwise merges actually recomputed;
	// NodesReused counts merge nodes served from the tree cache. A clean
	// incremental rebuild after one change recomputes O(log N) pairs.
	PairsMerged int
	NodesReused int
	SMTQueries  int
	// CacheHitRate is the shared SMT cache's hit rate during this build.
	CacheHitRate float64
	// VerbatimFallbacks counts Ω fuel exhaustions (degraded plan; see
	// consolidate.MultiStats.VerbatimFallbacks).
	VerbatimFallbacks int
	Rules             consolidate.Stats
	// Context aggregates the per-merge-node incremental solving contexts
	// over the pairs this build recomputed. Contexts persist across
	// rebuilds keyed by tree span, so a node re-merged after a nearby
	// change reuses its Tseitin encodings and learned clauses.
	Context smt.ContextStats
	// PrefilterTime is the time guard synthesis took (zero when disabled);
	// GuardTrivial reports whether it degraded to the admit-all guard and
	// GuardCost the static per-record cost of the synthesized guard.
	PrefilterTime time.Duration
	GuardTrivial  bool
	GuardCost     int64
}

// Snapshot is one published generation: an immutable view the engine can
// evaluate records against. A snapshot is *clean* when it reflects exactly
// the live query set; after a change and before the next rebuild it is a
// stale consolidated program plus a pending/removed delta that keeps the
// notification set exact.
type Snapshot struct {
	// Gen increases with every published snapshot (delta or rebuild).
	Gen uint64
	// Merged is the consolidated program over the built query set, with
	// notification ids renumbered to slot positions; nil when the built
	// set was empty. Compiled is its slot-compiled form.
	Merged   *lang.Program
	Compiled *lang.Compiled
	// Slots maps the merged program's notification ids (slot positions at
	// build time) to query ids.
	Slots []QueryID
	// Guard is the admission pre-filter synthesized for Merged (nil when
	// Options.Prefilter is unset or the built set was empty). It remains
	// valid on delta snapshots: it gates only Merged, which deltas share,
	// while Pending queries bypass it by running verbatim.
	Guard *prefilter.Guard
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
	Gen     uint64
	Size    int
	Adds    uint64
	Removes uint64
	Builds  uint64
	// PairsMerged / NodesReused accumulate over all rebuilds.
	PairsMerged    uint64
	NodesReused    uint64
	TotalBuildTime time.Duration
	LastBuild      BuildStats
	// CachedNodes is the current merge-node cache size (≈ N after a clean
	// rebuild; sibling programs kept for the next incremental pass).
	CachedNodes int
}

type entry struct {
	id       QueryID
	src      *lang.Program
	compiled *lang.Compiled
	notifyID int
}

// span identifies a merge-tree node by the leaf range it covers. Spans are
// positional, not content-keyed: after a change the node at the same
// position re-merges mostly-unchanged programs, which is exactly when a
// persistent solving context's memos pay off.
type span struct{ lo, hi int }

type preparedLeaf struct {
	slot int
	prog *lang.Program
}

// Registry is one incrementally consolidated query set. All methods are
// safe for concurrent use. Programs handed to Add must not be mutated
// afterwards.
type Registry struct {
	opts  Options
	cache *smt.Cache

	mu           sync.Mutex // guards the fields below
	entries      []entry    // slot order; the surviving set
	slotOf       map[QueryID]int
	nextID       QueryID
	version      uint64 // bumped on every Add/Remove
	builtVersion uint64 // version the published Merged reflects
	gen          uint64
	lastErr      error
	stats        Stats

	snap atomic.Pointer[Snapshot]

	// buildMu serialises rebuilds; the merge-node, prepared-leaf and
	// solving-context caches below are touched only under it (the builder
	// additionally guards them with its own mutex during a build's
	// parallel fan-out).
	buildMu sync.Mutex
	nodes   map[nodeKey]*lang.Program
	// seqs interns the query-id sequences that key merge nodes; it persists
	// across builds so an unchanged span keeps its key (and its cache hit)
	// from one build to the next.
	seqs *seqTable
	prep map[QueryID]preparedLeaf
	// sctxs holds one persistent solving context per merge-tree span.
	// Distinct spans re-merge in distinct goroutines, but a span is only
	// ever touched by its own pair worker within a build, and buildMu
	// serialises builds — so each context sees strictly sequential use.
	sctxs map[span]*smt.Context
}

// New creates an empty registry.
func New(opts Options) (*Registry, error) {
	if opts.Consolidate.Solver != nil {
		return nil, fmt.Errorf("registry: Options.Consolidate.Solver is not supported; share a Cache instead")
	}
	// Remaining consolidation options default inside consolidate.New,
	// identically to what All applies per pair.
	if opts.Consolidate.Cache == nil {
		opts.Consolidate.Cache = smt.NewCache(0)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	r := &Registry{
		opts:   opts,
		cache:  opts.Consolidate.Cache,
		slotOf: map[QueryID]int{},
		nextID: 1,
		nodes:  map[nodeKey]*lang.Program{},
		seqs:   newSeqTable(),
		prep:   map[QueryID]preparedLeaf{},
		sctxs:  map[span]*smt.Context{},
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

// Programs returns the surviving query programs in registry slot order —
// the set and order a from-scratch consolidate.All must be given to
// reproduce the registry's consolidated program byte for byte.
func (r *Registry) Programs() []*lang.Program {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*lang.Program, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.src
	}
	return out
}

// LastErr returns the most recent rebuild error, if any.
func (r *Registry) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Stats snapshots registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	s.Gen = r.gen
	s.Size = len(r.entries)
	r.mu.Unlock()
	r.buildMu.Lock()
	s.CachedNodes = len(r.nodes)
	r.buildMu.Unlock()
	return s
}

// Add subscribes a query: the program joins the live set immediately (a
// delta snapshot runs it verbatim from the next admitted batch on); the
// next Rebuild folds it into the merged program.
func (r *Registry) Add(p *lang.Program) (QueryID, error) {
	if p == nil {
		return 0, fmt.Errorf("registry: nil program")
	}
	ids := lang.NotifyIDs(p.Body)
	if len(ids) != 1 {
		return 0, fmt.Errorf("registry: query %s must notify exactly one id, has %d", p.Name, len(ids))
	}
	notifyID := 0
	for id := range ids {
		notifyID = id
	}
	for _, prm := range p.Params {
		if lang.AssignedVars(p.Body)[prm] {
			return 0, fmt.Errorf("registry: query %s assigns parameter %q", p.Name, prm)
		}
	}
	compiled, err := lang.Compile(p)
	if err != nil {
		return 0, fmt.Errorf("registry: compiling %s: %w", p.Name, err)
	}

	r.mu.Lock()
	if len(r.entries) > 0 {
		have := r.entries[0].src.Params
		if len(have) != len(p.Params) {
			r.mu.Unlock()
			return 0, fmt.Errorf("registry: query %s takes %d parameters, registry uses %d", p.Name, len(p.Params), len(have))
		}
		for i := range have {
			if have[i] != p.Params[i] {
				r.mu.Unlock()
				return 0, fmt.Errorf("registry: parameter mismatch %q vs %q", p.Params[i], have[i])
			}
		}
	}
	id := r.nextID
	r.nextID++
	e := entry{id: id, src: p, compiled: compiled, notifyID: notifyID}
	r.slotOf[id] = len(r.entries)
	r.entries = append(r.entries, e)
	r.version++
	r.stats.Adds++

	cur := r.snap.Load()
	next := *cur
	next.Pending = append(append([]PendingQuery(nil), cur.Pending...), PendingQuery{
		ID: id, Program: p, Compiled: compiled, NotifyID: notifyID,
	})
	r.gen++
	next.Gen = r.gen
	r.snap.Store(&next)
	r.mu.Unlock()
	return id, nil
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
		r.slotOf[r.entries[slot].id] = slot
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
	r.gen++
	next.Gen = r.gen
	r.snap.Store(&next)
	r.mu.Unlock()
	return nil
}

// Rebuild re-consolidates the live set now and publishes the result. Only
// merge nodes whose leaf span changed since the cached tree are
// recomputed. If queries changed concurrently during the build, the
// published snapshot carries the residual delta for the next rebuild.
func (r *Registry) Rebuild() (*Snapshot, error) {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()

	r.mu.Lock()
	ents := append([]entry(nil), r.entries...)
	v := r.version
	r.mu.Unlock()

	start := time.Now()
	pre := r.cache.Stats()
	var root *lang.Program
	var compiled *lang.Compiled
	bs := BuildStats{Leaves: len(ents)}
	if len(ents) == 0 {
		// Registry drained: the caches hold nothing reusable.
		r.nodes = map[nodeKey]*lang.Program{}
		r.prep = map[QueryID]preparedLeaf{}
		r.sctxs = map[span]*smt.Context{}
	} else {
		b := r.newBuilder(ents)
		raw, err := b.run()
		if err == nil && !r.opts.Consolidate.NoDCE {
			raw = consolidate.FinalCleanup(raw)
		}
		if err == nil {
			root = raw
			compiled, err = lang.Compile(root)
		}
		if err != nil {
			r.mu.Lock()
			r.lastErr = err
			r.mu.Unlock()
			return nil, err
		}
		bs = b.stats
		b.prune()
	}
	post := r.cache.Stats()
	if lk := post.Lookups - pre.Lookups; lk > 0 {
		bs.CacheHitRate = float64(post.Hits-pre.Hits) / float64(lk)
	}

	// Re-synthesize the admission guard for the new consolidated program.
	// This runs on every generation swap: a guard is only meaningful for
	// the exact Merged it was derived from.
	var guard *prefilter.Guard
	if r.opts.Prefilter != nil && root != nil {
		t0 := time.Now()
		popts := *r.opts.Prefilter
		if popts.Solver == nil && popts.Cache == nil {
			popts.Cache = r.cache
		}
		guard = prefilter.Synthesize(root, popts)
		bs.PrefilterTime = time.Since(t0)
		bs.GuardTrivial = guard.Trivial
		bs.GuardCost = guard.Cost
	}
	bs.Duration = time.Since(start)

	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{
		Merged:   root,
		Compiled: compiled,
		Slots:    make([]QueryID, len(ents)),
		Guard:    guard,
		Build:    bs,
	}
	built := make(map[QueryID]bool, len(ents))
	for i, e := range ents {
		snap.Slots[i] = e.id
		built[e.id] = true
	}
	// Changes that raced the build become the new snapshot's delta.
	live := make(map[QueryID]bool, len(r.entries))
	for _, e := range r.entries {
		live[e.id] = true
		if !built[e.id] {
			snap.Pending = append(snap.Pending, PendingQuery{
				ID: e.id, Program: e.src, Compiled: e.compiled, NotifyID: e.notifyID,
			})
		}
	}
	for _, e := range ents {
		if !live[e.id] {
			if snap.Removed == nil {
				snap.Removed = map[QueryID]bool{}
			}
			snap.Removed[e.id] = true
		}
	}
	r.gen++
	snap.Gen = r.gen
	r.snap.Store(snap)
	r.builtVersion = v
	r.lastErr = nil
	r.stats.Builds++
	r.stats.PairsMerged += uint64(bs.PairsMerged)
	r.stats.NodesReused += uint64(bs.NodesReused)
	r.stats.TotalBuildTime += bs.Duration
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

// ---- incremental tree build ----

// builder recomputes the merge tree for one frozen leaf sequence. The
// tree has the exact shape of consolidate.All's level-by-level pairing: a
// node covers leaves [lo, hi) with hi truncated by N, its children split
// at lo+size/2, and an empty right child carries the left child up
// unchanged. Nodes are cached by content — the slot offset plus the query
// ids under the node — so any node whose leaves did not move is reused
// and only changed root paths are re-merged.
type builder struct {
	ents  []entry
	reg   *Registry
	opts  consolidate.Options
	stats BuildStats
	// spanKeys maps every interior node span of this build's tree to its
	// content key. It is filled single-threaded in newBuilder and read-only
	// during the parallel fan-out, so the shared seqTable needs no lock on
	// the hot path.
	spanKeys map[span]nodeKey
	mu       sync.Mutex
	sem      chan struct{}
	failed   atomic.Bool
	firstE   error
}

// nodeKey identifies a merge node by its slot offset and the interned
// sequence of query ids under it — the same content the old text key
// rendered as "lo|id,id,...", without allocating a string per node per
// build. Injective while the seqTable generation lives: hash-consing gives
// each distinct id sequence exactly one seq.
type nodeKey struct {
	lo  int32
	seq int32
}

// seqTable hash-conses sequences of query ids as cons lists: a sequence is
// the id of the pair (head, rest). Shared suffixes share cells, and an
// unchanged span re-interns to the same seq in O(length) map hits.
type seqTable struct {
	pairs map[seqPair]int32
	n     int32
}

type seqPair struct {
	head QueryID
	tail int32
}

// seqTableCap bounds table growth across builds; past it the table and the
// merge-node cache keyed by its ids are dropped together (the next build
// repopulates both from scratch, which is always sound).
const seqTableCap = 1 << 20

func newSeqTable() *seqTable {
	return &seqTable{pairs: map[seqPair]int32{}}
}

func (t *seqTable) cons(head QueryID, tail int32) int32 {
	p := seqPair{head: head, tail: tail}
	if id, ok := t.pairs[p]; ok {
		return id
	}
	t.n++
	t.pairs[p] = t.n
	return t.n
}

// seqOf interns the id sequence of ents, consing right to left so that
// spans sharing a tail share cells. The empty sequence is -1.
func (t *seqTable) seqOf(ents []entry) int32 {
	seq := int32(-1)
	for i := len(ents) - 1; i >= 0; i-- {
		seq = t.cons(ents[i].id, seq)
	}
	return seq
}

func (r *Registry) newBuilder(ents []entry) *builder {
	opts := r.opts.Consolidate
	// As in All: clean-up passes run once on the root, not between levels,
	// or intermediate DCE would destroy the sharing later partners memoize
	// against.
	opts.NoDCE = true
	if len(r.seqs.pairs) > seqTableCap {
		r.seqs = newSeqTable()
		r.nodes = map[nodeKey]*lang.Program{}
	}
	b := &builder{
		ents:     ents,
		reg:      r,
		opts:     opts,
		spanKeys: map[span]nodeKey{},
		sem:      make(chan struct{}, r.opts.Workers),
	}
	b.stats.Leaves = len(ents)
	size := 1
	for size < len(ents) {
		size *= 2
	}
	b.collectSpanKeys(0, len(ents), size)
	return b
}

// collectSpanKeys walks the tree shape and interns the key of every
// interior node, mirroring the recursion of build and collectKeys.
func (b *builder) collectSpanKeys(lo, hi, size int) {
	if hi-lo <= 1 {
		return
	}
	half := size / 2
	mid := lo + half
	if mid >= hi {
		b.collectSpanKeys(lo, hi, half)
		return
	}
	b.spanKeys[span{lo, hi}] = nodeKey{lo: int32(lo), seq: b.reg.seqs.seqOf(b.ents[lo:hi])}
	b.collectSpanKeys(lo, mid, half)
	b.collectSpanKeys(mid, hi, half)
}

func (b *builder) run() (*lang.Program, error) {
	size := 1
	for size < len(b.ents) {
		size *= 2
	}
	root := b.build(0, len(b.ents), size)
	if b.firstE != nil {
		return nil, b.firstE
	}
	return root, nil
}

func (b *builder) build(lo, hi, size int) *lang.Program {
	if b.failed.Load() {
		return nil
	}
	if hi-lo == 1 {
		return b.leaf(lo)
	}
	half := size / 2
	mid := lo + half
	if mid >= hi {
		// Odd leftover: the node is its left child, carried up unchanged.
		return b.build(lo, hi, half)
	}
	k := b.spanKeys[span{lo, hi}]
	b.mu.Lock()
	if p, ok := b.reg.nodes[k]; ok {
		// A hit subsumes the whole subtree: its descendants stay cached
		// (prune walks the tree, so they remain reachable) but need no
		// recursion here.
		b.stats.NodesReused++
		b.mu.Unlock()
		return p
	}
	b.mu.Unlock()

	var right *lang.Program
	done := make(chan struct{})
	go func() {
		defer close(done)
		right = b.build(mid, hi, half)
	}()
	left := b.build(lo, mid, half)
	<-done
	if b.failed.Load() || left == nil || right == nil {
		return nil
	}

	b.sem <- struct{}{}
	opts := b.opts
	if !opts.NoSolvingContext {
		// Check out this span's persistent solving context. Only this pair
		// worker touches it during the build, and buildMu serialises builds.
		b.mu.Lock()
		sc, ok := b.reg.sctxs[span{lo, hi}]
		if !ok {
			sc = smt.NewSolvingContext()
			b.reg.sctxs[span{lo, hi}] = sc
		}
		b.mu.Unlock()
		opts.SolvingContext = sc
	}
	co := consolidate.New(opts)
	merged, err := co.Pair(left, right)
	<-b.sem
	if err != nil {
		b.fail(err)
		return nil
	}
	st := co.Stats()
	b.mu.Lock()
	b.reg.nodes[k] = merged
	b.stats.PairsMerged++
	b.stats.SMTQueries += st.SMTQueries
	b.stats.VerbatimFallbacks += st.FuelExhausted
	b.stats.Context.Add(st.Context)
	addRules(&b.stats.Rules, st)
	b.mu.Unlock()
	return merged
}

// leaf prepares the query at the given slot exactly as All prepares its
// leaves; re-preparations are cached until the query changes slot.
func (b *builder) leaf(slot int) *lang.Program {
	e := b.ents[slot]
	b.mu.Lock()
	if p, ok := b.reg.prep[e.id]; ok && p.slot == slot {
		b.mu.Unlock()
		return p.prog
	}
	b.mu.Unlock()
	prog := consolidate.PrepareLeaf(e.src, slot, true)
	b.mu.Lock()
	b.reg.prep[e.id] = preparedLeaf{slot: slot, prog: prog}
	b.mu.Unlock()
	return prog
}

func (b *builder) fail(err error) {
	b.mu.Lock()
	if b.firstE == nil {
		b.firstE = err
	}
	b.mu.Unlock()
	b.failed.Store(true)
}

// prune drops merge nodes unreachable from the just-built tree and
// prepared leaves of departed queries, keeping both caches O(N). Interior
// nodes under a reused subtree must survive — the next change can land
// inside that subtree — so reachability is computed by walking the tree
// shape, not by recording which nodes the build visited.
func (b *builder) prune() {
	keep := make(map[nodeKey]bool, len(b.ents))
	keepSpan := make(map[span]bool, len(b.ents))
	size := 1
	for size < len(b.ents) {
		size *= 2
	}
	b.collectKeys(0, len(b.ents), size, keep, keepSpan)
	for k := range b.reg.nodes {
		if !keep[k] {
			delete(b.reg.nodes, k)
		}
	}
	for sp := range b.reg.sctxs {
		if !keepSpan[sp] {
			delete(b.reg.sctxs, sp)
		}
	}
	liveID := make(map[QueryID]bool, len(b.ents))
	for _, e := range b.ents {
		liveID[e.id] = true
	}
	for id := range b.reg.prep {
		if !liveID[id] {
			delete(b.reg.prep, id)
		}
	}
}

// collectKeys records the key and span of every merge node of the current
// tree.
func (b *builder) collectKeys(lo, hi, size int, keep map[nodeKey]bool, keepSpan map[span]bool) {
	if hi-lo <= 1 {
		return
	}
	half := size / 2
	mid := lo + half
	if mid >= hi {
		b.collectKeys(lo, hi, half, keep, keepSpan)
		return
	}
	keep[b.spanKeys[span{lo, hi}]] = true
	keepSpan[span{lo, hi}] = true
	b.collectKeys(lo, mid, half, keep, keepSpan)
	b.collectKeys(mid, hi, half, keep, keepSpan)
}

func addRules(dst *consolidate.Stats, s consolidate.Stats) {
	dst.If1 += s.If1
	dst.If2 += s.If2
	dst.If3 += s.If3
	dst.If4 += s.If4
	dst.If5 += s.If5
	dst.Loop2 += s.Loop2
	dst.Loop3 += s.Loop3
	dst.LoopsSequential += s.LoopsSequential
	dst.AssignsSimplified += s.AssignsSimplified
	dst.FuelExhausted += s.FuelExhausted
	dst.SMTQueries += s.SMTQueries
}
