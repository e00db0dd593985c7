package consolidate

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/smt"
)

// MultiStats aggregates a divide-and-conquer consolidation of n programs.
type MultiStats struct {
	Programs int
	// Pairs counts the pairwise merges computed; NodesReused counts merge
	// nodes served from a Memo instead (always 0 without one).
	Pairs       int
	NodesReused int
	// LeavesPrepared counts leaves renamed apart for this build; a Memo
	// serves the rest — every leaf that kept its position — from earlier
	// builds.
	LeavesPrepared int
	Levels         int
	Duration       time.Duration
	SMTQueries     int
	Rules          Stats
	OutputSize     int
	// Solver merges the per-pair solver statistics (each pair worker owns
	// its own solver; only the query cache is shared).
	Solver smt.Stats
	// Context merges the per-pair incremental solving context statistics
	// (each pair runs one context, layered under the shared cache).
	Context smt.ContextStats
	// Cache snapshots the shared SMT query cache after the run. When the
	// caller supplied the cache (or a solver), counters are cumulative
	// over that cache's lifetime, not just this run.
	Cache smt.CacheStats
	// CacheHitRate is the share of this run's lookups in the shared SMT
	// cache that hit, in [0,1]: the difference of the cache's counters at
	// the run's end and start, so a cache shared across runs still reports
	// this run alone.
	CacheHitRate float64
}

// VerbatimFallbacks counts Ω fuel exhaustions across all pairs: each one
// emitted a suffix of some pair's programs verbatim instead of
// consolidating it. The output is sound either way, but a non-zero count
// means the plan is degraded — callers (the live registry, reports) use
// this to tell an optimised plan from a budget-capped one.
func (ms *MultiStats) VerbatimFallbacks() int { return ms.Rules.FuelExhausted }

// Span identifies a merge-tree node by the half-open interval of leaf
// positions it covers; leaf i is Span{i, i + 1}.
type Span struct{ Lo, Hi int }

// MergeTree persists the divide-and-conquer tree of one AllTree run: the
// prepared leaves and every pairwise merge, keyed by the leaf span each
// node covers, all in pre-cleanup form (the clean-up passes run once on
// the root only — see All). Odd leftovers carried up a level are not
// duplicated; their program is found under the child span.
type MergeTree struct {
	N     int
	Nodes map[Span]*lang.Program
	// Root is the final program after the clean-up passes.
	Root *lang.Program
}

// Leaf is one input of the merge tree. ID is the leaf's identity, which a
// Memo keys the prepared leaf and every merge node above it by; All passes
// ids 0…N−1, the live registry its query ids. A leaf's content is
// positional: the leaf at position i has its locals renamed apart under
// the q<i>_ prefix and, with renumbering, notifies i. The shared SMT cache
// keys queries modulo α-renaming, so it answers the same entailment for
// leaves at any positions.
type Leaf struct {
	ID   int
	Prog *lang.Program
}

// prepareLeaf returns the working copy the builder merges for p at
// position pos: locals renamed apart so that pairwise clash renaming stays
// rare and, when renumber is set, every notification id rewritten to pos
// (ids are per-program, so multiple notify sites collapse to the same id
// correctly).
func prepareLeaf(p *lang.Program, pos int, renumber bool) *lang.Program {
	q := &lang.Program{Name: p.Name, Params: p.Params, Body: p.Body}
	params := map[string]bool{}
	for _, prm := range p.Params {
		params[prm] = true
	}
	q.Body = lang.RenameVars(q.Body, func(v string) string {
		if params[v] {
			return v
		}
		return fmt.Sprintf("q%d_%s", pos, v)
	})
	if renumber {
		q.Body = lang.RenameNotifyIDs(q.Body, func(int) int { return pos })
	}
	return q
}

// FinalCleanup applies the clean-up passes the builder runs once on the
// root program (copy propagation, then dead-store elimination).
func FinalCleanup(p *lang.Program) *lang.Program {
	return EliminateDeadCode(PropagateCopies(p))
}

// All consolidates n ≥ 1 programs into one by the parallel
// divide-and-conquer scheme of Section 6.1. Notification identifiers are
// renumbered to the program's index when renumber is true (the
// whereConsolidated operator does this so query i owns id i); local
// variables are renamed apart automatically.
func All(progs []*lang.Program, opts Options, renumber bool, parallel bool) (*lang.Program, *MultiStats, error) {
	return build(indexLeaves(progs), opts, idMode(renumber), allWorkers(parallel), nil, nil)
}

// AllTree is All, additionally persisting the merge tree by leaf span.
func AllTree(progs []*lang.Program, opts Options, renumber bool, parallel bool) (*lang.Program, *MergeTree, *MultiStats, error) {
	tree := &MergeTree{N: len(progs), Nodes: map[Span]*lang.Program{}}
	out, ms, err := build(indexLeaves(progs), opts, idMode(renumber), allWorkers(parallel), nil, tree)
	if err != nil {
		return nil, nil, nil, err
	}
	tree.Root = out
	return out, tree, ms, nil
}

// Build consolidates leaves, renumbering each leaf's notifications to its
// position. With a Memo, only the merge nodes whose position or leaf-id
// sequence is new since the memo's last build are re-merged — after one
// leaf changes that is its O(log N) root path — and the memo is pruned to
// the new tree. workers bounds concurrent pair merges; 1 builds in line.
func Build(leaves []Leaf, opts Options, workers int, memo *Memo) (*lang.Program, *MultiStats, error) {
	return build(leaves, opts, renumberIDs, workers, memo, nil)
}

// leafMode is the contract a build merges its leaves under: Pair with the
// notification ids kept or renumbered to leaf positions, or pairFolds for
// fold programs, whose root clean-up keeps the accumulators live.
type leafMode int

const (
	keepIDs leafMode = iota
	renumberIDs
	foldLeaves
)

func idMode(renumber bool) leafMode {
	if renumber {
		return renumberIDs
	}
	return keepIDs
}

// Plan is a prepared query set: what a pass runs (the merged program, its
// compiled form and its admission guard) and what producing it cost. The
// zero Plan means nothing has been built.
type Plan struct {
	Merged   *lang.Program
	Compiled *lang.Compiled
	// Guard is the admission pre-filter synthesized for Merged; nil when
	// Prepare was given no guard options.
	Guard           *prefilter.Guard
	Multi           *MultiStats
	ConsolidateTime time.Duration
	PrefilterTime   time.Duration
}

// Prepare is the one consolidate → compile → synthesize sequence: Build over
// leaves, lang.Compile of the merged program, then, when guard is non-nil,
// prefilter.Synthesize of its admission guard. The static operator and
// every live rebuild run what it returns.
func Prepare(leaves []Leaf, opts Options, workers int, memo *Memo, guard *prefilter.Options) (*Plan, error) {
	t0 := time.Now()
	merged, ms, err := Build(leaves, opts, workers, memo)
	if err != nil {
		return nil, err
	}
	p := &Plan{Merged: merged, Multi: ms, ConsolidateTime: time.Since(t0)}
	if p.Compiled, err = lang.Compile(merged); err != nil {
		return nil, fmt.Errorf("consolidate: compiling merged program: %w", err)
	}
	if guard != nil {
		t1 := time.Now()
		p.Guard = prefilter.Synthesize(merged, *guard)
		p.PrefilterTime = time.Since(t1)
	}
	return p, nil
}

func indexLeaves(progs []*lang.Program) []Leaf {
	leaves := make([]Leaf, len(progs))
	for i, p := range progs {
		leaves[i] = Leaf{ID: i, Prog: p}
	}
	return leaves
}

func allWorkers(parallel bool) int {
	if parallel {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// Memo persists a merge tree across builds: merge nodes keyed by their
// position and the sequence of leaf ids they cover, and prepared leaves
// keyed by id. Any change under a node changes its key, so every
// unchanged subtree hits by construction. A Memo requires that an id
// always names the same program and that every build uses the same
// Options; it must not be used by concurrent builds.
type Memo struct {
	nodes map[nodeKey]memoNode
	seqs  *seqTable
	prep  map[int]preparedLeaf
}

// nodeKey identifies a merge node by its first leaf position and the
// interned sequence of leaf ids under it — injective while the seqTable
// lives, without rendering a string per node per build. A leaf has no key.
type nodeKey struct{ lo, seq int32 }

var noKey = nodeKey{-1, -1}

// memoNode is one cached merge: the pre-cleanup program and its
// children's keys, which is what lets prune find every node under a
// reused one.
type memoNode struct {
	prog        *lang.Program
	left, right nodeKey
}

type preparedLeaf struct {
	pos  int
	prog *lang.Program
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{
		nodes: map[nodeKey]memoNode{},
		seqs:  newSeqTable(),
		prep:  map[int]preparedLeaf{},
	}
}

// Nodes reports the number of cached merge nodes (N−1 after a build of N
// leaves).
func (m *Memo) Nodes() int { return len(m.nodes) }

// prune drops merge nodes unreachable from root and prepared leaves of
// departed ids, keeping the memo O(N).
func (m *Memo) prune(root nodeKey, leaves []Leaf) {
	keep := make(map[nodeKey]bool, len(leaves))
	var mark func(nodeKey)
	mark = func(k nodeKey) {
		n, ok := m.nodes[k]
		if !ok {
			return
		}
		keep[k] = true
		mark(n.left)
		mark(n.right)
	}
	mark(root)
	for k := range m.nodes {
		if !keep[k] {
			delete(m.nodes, k)
		}
	}
	live := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		live[l.ID] = true
	}
	for id := range m.prep {
		if !live[id] {
			delete(m.prep, id)
		}
	}
}

// seqTable hash-conses sequences of leaf ids as cons lists: a sequence is
// the id of the pair (head, rest). Shared suffixes share cells, and an
// unchanged span re-interns to the same seq in O(length) map hits.
type seqTable struct {
	pairs map[seqPair]int32
	n     int32
}

type seqPair struct {
	head int
	tail int32
}

// seqTableCap bounds table growth across builds; past it the table and the
// merge nodes keyed by its ids are dropped together (the next build
// repopulates both from scratch, which is always sound).
const seqTableCap = 1 << 20

func newSeqTable() *seqTable {
	return &seqTable{pairs: map[seqPair]int32{}}
}

// seqOf interns the id sequence of leaves, consing right to left so that
// spans sharing a tail share cells. The empty sequence is -1.
func (t *seqTable) seqOf(leaves []Leaf) int32 {
	seq := int32(-1)
	for i := len(leaves) - 1; i >= 0; i-- {
		p := seqPair{head: leaves[i].ID, tail: seq}
		id, ok := t.pairs[p]
		if !ok {
			t.n++
			id = t.n
			t.pairs[p] = id
		}
		seq = id
	}
	return seq
}

// builder runs one build: the only implementation of the divide-and-
// conquer tree. A node covering n > 1 leaves sits in a power-of-two
// aligned block and splits at the block's midpoint; a node whose block
// midpoint falls past its last leaf is its left child carried up
// unchanged. The left subtree is merged before the right one, so with one
// worker the recursion is depth first and in line (a shared solver sees a
// deterministic query order); otherwise the right subtree forks and one
// semaphore bounds concurrent Pair calls.
type builder struct {
	leaves []Leaf
	opts   Options
	mode   leafMode
	memo   *Memo
	tree   *MergeTree
	sem    chan struct{} // nil: in line

	mu     sync.Mutex // guards ms, memo, tree and firstE
	ms     *MultiStats
	failed atomic.Bool
	firstE error
}

func build(leaves []Leaf, opts Options, mode leafMode, workers int, memo *Memo, tree *MergeTree) (*lang.Program, *MultiStats, error) {
	if len(leaves) == 0 {
		return nil, nil, fmt.Errorf("consolidate: no programs")
	}
	start := time.Now()
	// Clean-up passes run once on the final program, not per merge: a
	// store that is dead within one merged program is exactly what a later
	// partner memoizes against (its call result), so intermediate DCE
	// destroys sharing opportunities.
	finalDCE := !opts.NoDCE
	opts.NoDCE = true
	// A caller-supplied solver is not safe for concurrent use, so it forces
	// an in-line build. A Cache does not: each pair gets its own solver
	// backed by the shared, lock-striped cache, so later pairs reuse
	// verdicts from earlier ones without serialising.
	if opts.Solver != nil {
		workers = 1
	}
	if opts.Solver == nil && opts.Cache == nil {
		opts.Cache = smt.NewCache(0)
	}
	cache := opts.Cache
	if opts.Solver != nil {
		cache = opts.Solver.Cache()
	}
	pre := cache.Stats()
	b := &builder{leaves: leaves, opts: opts, mode: mode, memo: memo, tree: tree,
		ms: &MultiStats{Programs: len(leaves)}}
	if workers > 1 {
		b.sem = make(chan struct{}, workers)
	}
	if memo != nil && len(memo.seqs.pairs) > seqTableCap {
		memo.seqs = newSeqTable()
		memo.nodes = map[nodeKey]memoNode{}
	}
	size := 1
	for size < len(leaves) {
		size *= 2
		b.ms.Levels++
	}
	out, key := b.node(0, len(leaves), size)
	if b.firstE != nil {
		return nil, nil, b.firstE
	}
	if memo != nil {
		memo.prune(key, leaves)
	}
	if finalDCE && mode == foldLeaves {
		live := make(map[string]bool, len(out.Params))
		for _, acc := range out.Params[1:] {
			live[acc] = true
		}
		out = EliminateDeadCodeLive(PropagateCopies(out), live)
	} else if finalDCE {
		out = FinalCleanup(out)
	}
	ms := b.ms
	ms.Duration = time.Since(start)
	ms.OutputSize = lang.Size(out.Body)
	ms.Cache = cache.Stats()
	if lk := ms.Cache.Lookups - pre.Lookups; lk > 0 {
		ms.CacheHitRate = float64(ms.Cache.Hits-pre.Hits) / float64(lk)
	}
	return out, ms, nil
}

// node builds the subtree over leaves [lo, hi) in a block of the given
// size and returns its pre-cleanup program and memo key (noKey for a leaf
// or without a memo); nil once any pair has failed.
func (b *builder) node(lo, hi, size int) (*lang.Program, nodeKey) {
	if b.failed.Load() {
		return nil, noKey
	}
	if hi-lo == 1 {
		return b.leaf(lo), noKey
	}
	half := size / 2
	mid := lo + half
	if mid >= hi {
		return b.node(lo, hi, half)
	}
	key := noKey
	if b.memo != nil {
		b.mu.Lock()
		key = nodeKey{int32(lo), b.memo.seqs.seqOf(b.leaves[lo:hi])}
		n, ok := b.memo.nodes[key]
		if ok {
			// A hit subsumes the whole subtree; prune still reaches its
			// descendants through the stored child keys.
			b.ms.NodesReused++
		}
		b.mu.Unlock()
		if ok {
			return n.prog, key
		}
	}

	var left, right *lang.Program
	var lk, rk nodeKey
	if b.sem == nil {
		left, lk = b.node(lo, mid, half)
		right, rk = b.node(mid, hi, half)
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			right, rk = b.node(mid, hi, half)
		}()
		left, lk = b.node(lo, mid, half)
		<-done
	}
	if left == nil || right == nil {
		return nil, noKey
	}
	merged := b.pair(left, right)
	if merged == nil {
		return nil, noKey
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.memo != nil {
		b.memo.nodes[key] = memoNode{prog: merged, left: lk, right: rk}
	}
	if b.tree != nil {
		b.tree.Nodes[Span{lo, hi}] = merged
	}
	return merged, key
}

// leaf returns the prepared leaf at position pos, from the memo when it
// holds the leaf's id at the same position.
func (b *builder) leaf(pos int) *lang.Program {
	l := b.leaves[pos]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.memo != nil {
		if p, ok := b.memo.prep[l.ID]; ok && p.pos == pos {
			return p.prog
		}
	}
	p := prepareLeaf(l.Prog, pos, b.mode == renumberIDs)
	b.ms.LeavesPrepared++
	if b.memo != nil {
		b.memo.prep[l.ID] = preparedLeaf{pos, p}
	}
	if b.tree != nil {
		b.tree.Nodes[Span{pos, pos + 1}] = p
	}
	return p
}

// pair merges left ⊗ right and folds its statistics into the build's. The
// first error cancels every pair not yet started: its output would be
// discarded, so it would only delay the error.
func (b *builder) pair(left, right *lang.Program) *lang.Program {
	if b.sem != nil {
		b.sem <- struct{}{}
		defer func() { <-b.sem }()
	}
	if b.failed.Load() {
		return nil
	}
	co := New(b.opts)
	pre := co.solver.Stats
	pair := co.Pair
	if b.mode == foldLeaves {
		pair = co.pairFolds
	}
	merged, err := pair(left, right)
	delta := co.solver.Stats.Diff(pre)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		if b.firstE == nil {
			b.firstE = err
		}
		b.failed.Store(true)
		return nil
	}
	ms := b.ms
	ms.Pairs++
	ms.SMTQueries += co.stats.SMTQueries
	ms.Solver.Add(delta)
	ms.Context.Add(co.stats.Context)
	addStats(&ms.Rules, co.stats)
	return merged
}

func addStats(dst *Stats, s Stats) {
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
}

// Verify checks Definition 1 on concrete inputs: for every input vector,
// running the consolidated program must produce exactly the union of the
// originals' notification environments, at a cost no greater than the sum
// of their costs. It returns a descriptive error on the first violation.
// The merged program is additionally run through the bytecode VM — the
// executor the engine actually uses — which must agree with the
// interpreter on notes, total cost, and per-notification stamps. The
// engine also interposes a synthesized admission pre-filter ahead of the
// merged VM, so Verify replays that path too: it synthesizes the guard
// with the fragment opened wide (the strongest guard the projection can
// produce) and holds it to its soundness contract on every input — a
// rejected input must produce no true notification from the merged
// program. That wide-fragment replay is the one intended compile →
// synthesize site besides Prepare.
//
// renumbered says the originals were consolidated with renumbering, so
// original i's verdict is expected under notification id i; otherwise each
// original keeps its own ids.
func Verify(origs []*lang.Program, merged *lang.Program, lib lang.Library, cm *lang.CostModel, inputs [][]int64, renumbered bool) error {
	mergedC, cerr := lang.Compile(merged)
	if cerr != nil {
		return fmt.Errorf("compile consolidated program: %w", cerr)
	}
	var ropts []lang.RunnerOption
	if cm != nil {
		ropts = append(ropts, lang.WithCostModel(cm))
	}
	runner := lang.NewRunner(mergedC, lib, ropts...)
	guard := prefilter.Synthesize(merged, prefilter.Options{
		Coster:      lib,
		MaxCallCost: 1 << 30, // admit every call into the fragment: strongest guard, strongest check
	})
	var guardRunner *lang.Runner
	if !guard.Trivial {
		guardRunner = lang.NewRunner(guard.Compiled, lib, ropts...)
	}
	for _, in := range inputs {
		var sumCost int64
		want := lang.Notifications{}
		for i, p := range origs {
			interp := lang.NewInterp(lib)
			if cm != nil {
				interp.CM = cm
			}
			res, err := interp.Run(p, in)
			if err != nil {
				return fmt.Errorf("original %s on %v: %w", p.Name, in, err)
			}
			sumCost += res.Cost
			for id, v := range res.Notes {
				nid := id
				if renumbered {
					nid = i
				}
				if _, dup := want[nid]; dup {
					return fmt.Errorf("originals share notification id %d", nid)
				}
				want[nid] = v
			}
		}
		interp := lang.NewInterp(lib)
		if cm != nil {
			interp.CM = cm
		}
		res, err := interp.Run(merged, in)
		if err != nil {
			return fmt.Errorf("consolidated program on %v: %w", in, err)
		}
		if !res.Notes.Equal(want) {
			return fmt.Errorf("input %v: notifications %v, want %v", in, res.Notes, want)
		}
		if res.Cost > sumCost {
			return fmt.Errorf("input %v: consolidated cost %d exceeds sequential cost %d", in, res.Cost, sumCost)
		}
		vmNotes, vmStamps, vmCost, err := runner.Run(in)
		if err != nil {
			return fmt.Errorf("vm: consolidated program on %v: %w", in, err)
		}
		if !res.Notes.Equal(vmNotes) {
			return fmt.Errorf("vm: input %v: notifications %v, interp %v", in, vmNotes, res.Notes)
		}
		if vmCost != res.Cost {
			return fmt.Errorf("vm: input %v: cost %d, interp %d", in, vmCost, res.Cost)
		}
		for id, c := range res.NoteCosts {
			if vmStamps[id] != c {
				return fmt.Errorf("vm: input %v: notification %d stamped %d, interp %d", in, id, vmStamps[id], c)
			}
		}
		// Pre-filtered path: the guard is a necessary condition for any
		// notification, so an input it rejects must have notified nothing.
		// A guard runtime error admits the record (the engine fails open).
		if guardRunner != nil {
			if _, gerr := guardRunner.RunDense(in); gerr == nil && !guard.Admits(guardRunner) {
				for id, v := range res.Notes {
					if v {
						return fmt.Errorf("prefilter: input %v rejected by guard %s but notification %d fired", in, guard.Formula, id)
					}
				}
			}
		}
	}
	return nil
}
