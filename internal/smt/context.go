package smt

import (
	"encoding/binary"
	"sort"

	"consolidation/internal/logic"
)

// Context is a persistent, assumption-based solving context that amortizes
// Ω's validity queries across a consolidation run. A Consolidator asserts
// each context conjunct Ψᵢ once — Assert interns the formula into the
// context's hash-consing arena and memoizes its conjunction pieces, its
// literal compilation, and (lazily) its CNF encoding — and every
// entailment check Ψ' ⊨ φ then selects a subset of assertion ids instead
// of rebuilding the conjunction from scratch:
//
//   - A verdict memo keyed by (assertion-id list, goal id) answers repeated
//     queries without composing the query at all. The consolidation
//     workloads re-prove the same entailments for every record pair, so this
//     is the common case.
//   - On a memo miss the composed query node is built from the memoized
//     per-assertion piece NodeIDs (one MkAnd over interned ids, not a
//     formula walk) and the shared Cache is consulted by the node's
//     structural hash, so verdicts still flow between parallel pair workers
//     exactly as before. The composed node is structurally identical to
//     the formula the stateless pipeline builds for the same query, and
//     structural hashes agree across arenas, so cache entries published by
//     either side hit the other.
//   - Literal-conjunction queries — the overwhelming majority — reuse the
//     per-assertion theoryLit slices and run one stateless theory check,
//     identical to the fresh solver's fast path; a budget-keyed Unknown in
//     the shared Cache is therefore their answer too and is not re-solved.
//   - Queries with boolean structure run on a persistent incremental CDCL
//     instance: Tseitin encodings are memoized across checks (definitional
//     clauses are valid regardless of which formulas are asserted), the
//     selected assertions enter as assumption literals, and learned clauses
//     and theory-conflict blocking clauses survive to later checks. Clauses
//     that depended on retracted assumptions are never unsoundly reused:
//     assumptions are decisions, so learned clauses are implied by the
//     clause database alone, and blocking clauses are theory facts.
//
// Soundness vs the stateless pipeline: decided verdicts (Sat/Unsat) can
// never disagree between the two — both are sound in both directions — so
// reuse can only move a verdict across the Unknown budget edge. To keep the
// shared Cache schedule-independent (the determinism oracle compares serial
// and parallel runs byte for byte), the boolean path publishes a verdict to
// the shared Cache only when it came from the stateless pipeline; verdicts
// decided by the warm incremental instance stay in the private memo. When
// the incremental instance exhausts its budget the query falls back to the
// stateless pipeline, so a Context is never *less* decisive than a fresh
// solver on the paths the cache observes.
//
// A Context is bound to one Solver at a time (Bind) and is not safe for
// concurrent use; create one per pair worker or per merge-tree node and
// share only the Cache.
type Context struct {
	// solver is the bound solver, nil between runs (EndRun).
	solver *Solver
	// budgets the memo and encodings were built under, once bound; a Bind
	// with different budgets resets the context (verdicts are budget-keyed).
	bound     bool
	conflicts int
	lazyIters int

	// in is the context's private hash-consing arena; every asserted
	// formula, goal, and composed query lives in it as a NodeID. It resets
	// together with the context, so NodeIDs held by forms and the encoder
	// never dangle.
	in     *logic.Interner
	byNode map[logic.NodeID]int
	forms  []cform

	// memo caches verdicts by (full assertion-id list, goal id); coneMemo
	// caches them by the cone actually sent to the solver. Ψ grows between
	// checks, so the full list rarely repeats within a run — but the cone
	// does, and equal cones compose the same query node, so a coneMemo
	// hit is exactly a shared-cache hit without the composition. The
	// two maps are kept separate: a full-list key resolves through the cone
	// computation, a cone key does not, so equal byte strings would not
	// mean equal queries.
	memo     map[string]Result
	coneMemo map[string]Result

	enc *incCNF

	keyBuf  []byte
	key2Buf []byte
	litBuf  []theoryLit
	idsBuf  []logic.NodeID

	stats ContextStats
}

// cform is one interned formula with every compilation the Context may
// need, computed at most once.
type cform struct {
	f  logic.Formula
	id logic.NodeID
	// pieceIDs are the formula's top-level conjunction pieces (as NodeIDs)
	// exactly as logic.And would flatten them into an enclosing
	// conjunction; empty for ⊤. For an FAnd these alias the interned
	// node's kid slice — no per-assert allocation.
	pieceIDs []logic.NodeID
	// isFalse marks ⊥ (the composed conjunction collapses).
	isFalse bool
	// degenerate marks shapes And() would rewrite beyond one-level
	// flattening (nested FAnd, boolean constants inside a conjunction);
	// queries touching them take the stateless fallback.
	degenerate bool
	// lits is the literal-conjunction compilation of NNF(f); isLit marks it
	// valid. The slice order matches literalConjunction's walk order over
	// the composed conjunction, so concatenation reproduces the stateless
	// pipeline's theory query exactly.
	lits  []theoryLit
	isLit bool

	// Negated-goal compilation (¬f), computed lazily on first use as goal.
	negReady    bool
	negIDs      []logic.NodeID
	negLits     []theoryLit
	negIsLit    bool
	negFallback bool

	// Persistent SAT encoding (boolean path only).
	encoded  bool
	root     int
	atomVars []int
}

// ContextStats counts the amortization a Context achieved. All counters
// accumulate over the context's lifetime; Diff snapshots one run.
type ContextStats struct {
	// Contexts counts contexts merged into an aggregate (1 for a live one).
	Contexts int
	// Asserts counts Assert calls; AssertHits the ones answered by the
	// interning table without recompiling anything.
	Asserts    int
	AssertHits int
	// Checks counts entailment checks; MemoHits the ones answered by the
	// private verdict memo, SharedHits the ones answered by the shared
	// Cache after composing the query text.
	Checks     int
	MemoHits   int
	SharedHits int
	// TheoryChecks counts literal-path theory checks issued by the context.
	TheoryChecks int
	// SATChecks counts boolean-path queries run on the incremental CDCL
	// instance; CNFMemoHits counts formula encodings reused from the
	// Tseitin memo; BlockingKept counts theory blocking clauses added to
	// the persistent clause database; ClauseReuses counts boolean checks
	// that started with clauses learned by earlier checks.
	SATChecks    int
	CNFMemoHits  int
	BlockingKept int
	ClauseReuses int
	// Fallbacks counts queries delegated to the stateless pipeline
	// (degenerate shapes, or incremental budget exhaustion).
	Fallbacks int
	// Resets counts full context resets (budget change or size cap).
	Resets int
}

// Add accumulates o into s.
func (s *ContextStats) Add(o ContextStats) {
	s.Contexts += o.Contexts
	s.Asserts += o.Asserts
	s.AssertHits += o.AssertHits
	s.Checks += o.Checks
	s.MemoHits += o.MemoHits
	s.SharedHits += o.SharedHits
	s.TheoryChecks += o.TheoryChecks
	s.SATChecks += o.SATChecks
	s.CNFMemoHits += o.CNFMemoHits
	s.BlockingKept += o.BlockingKept
	s.ClauseReuses += o.ClauseReuses
	s.Fallbacks += o.Fallbacks
	s.Resets += o.Resets
}

// Diff returns s - o field-wise (Contexts is carried over, not diffed).
func (s ContextStats) Diff(o ContextStats) ContextStats {
	return ContextStats{
		Contexts:     s.Contexts,
		Asserts:      s.Asserts - o.Asserts,
		AssertHits:   s.AssertHits - o.AssertHits,
		Checks:       s.Checks - o.Checks,
		MemoHits:     s.MemoHits - o.MemoHits,
		SharedHits:   s.SharedHits - o.SharedHits,
		TheoryChecks: s.TheoryChecks - o.TheoryChecks,
		SATChecks:    s.SATChecks - o.SATChecks,
		CNFMemoHits:  s.CNFMemoHits - o.CNFMemoHits,
		BlockingKept: s.BlockingKept - o.BlockingKept,
		ClauseReuses: s.ClauseReuses - o.ClauseReuses,
		Fallbacks:    s.Fallbacks - o.Fallbacks,
		Resets:       s.Resets - o.Resets,
	}
}

// Size caps: past these the context resets at the next safe point
// (BeginRun), bounding memory when one context lives across many rebuilds.
const (
	maxContextForms = 1 << 13
	maxContextMemo  = 1 << 17
	maxContextNodes = 1 << 18
)

// NewSolvingContext returns an empty context; it becomes usable after the
// first Bind/BeginRun.
func NewSolvingContext() *Context {
	c := &Context{}
	c.reset()
	c.stats.Resets = 0
	return c
}

func (c *Context) reset() {
	c.in = logic.NewInterner()
	c.byNode = map[logic.NodeID]int{}
	c.forms = c.forms[:0]
	c.memo = map[string]Result{}
	c.coneMemo = map[string]Result{}
	c.enc = nil
	c.stats.Resets++
}

// Bind attaches the context to a solver. Budgets differing from the ones
// the memo was built under reset the context: cached verdicts are
// budget-keyed artefacts.
func (c *Context) Bind(s *Solver) {
	if c.bound && (c.conflicts != s.MaxConflicts || c.lazyIters != s.MaxLazyIters) {
		c.reset()
	}
	c.solver, c.bound = s, true
	c.conflicts = s.MaxConflicts
	c.lazyIters = s.MaxLazyIters
}

// BeginRun is Bind plus housekeeping at a safe point — no assertion ids are
// outstanding between Pair calls, so an oversized context may reset.
func (c *Context) BeginRun(s *Solver) {
	c.Bind(s)
	if len(c.forms) > maxContextForms || len(c.memo)+len(c.coneMemo) > maxContextMemo ||
		c.in.Len() > maxContextNodes {
		c.reset()
	}
}

// EndRun detaches the solver when a run is over. The context keeps its
// memos and the budgets they were built under, but no longer keeps the
// solver — its arena and its theory workspace — alive: a registry holds a
// context per merge-tree span for as long as the span exists, and a solver
// only for the length of one Pair.
func (c *Context) EndRun() { c.solver = nil }

// Stats snapshots the context's counters.
func (c *Context) Stats() ContextStats {
	s := c.stats
	s.Contexts = 1
	return s
}

// Assert interns a context conjunct and returns its assertion id. Equal
// formulas (by interned node) share an id, so re-asserting across record
// pairs and cloned symbolic contexts costs one intern walk (all dedup
// hits) plus one map lookup.
func (c *Context) Assert(f logic.Formula) int {
	c.stats.Asserts++
	nid := c.in.InternFormula(f)
	if id, ok := c.byNode[nid]; ok {
		c.stats.AssertHits++
		return id
	}
	return c.intern(f, nid)
}

func (c *Context) intern(f logic.Formula, nid logic.NodeID) int {
	cf := cform{f: f, id: nid}
	cf.pieceIDs, cf.isFalse, cf.degenerate = c.splitPieces(nid)
	if !cf.degenerate && !cf.isFalse {
		cf.lits, cf.isLit = literalConjunction(c.in, logic.NNF(f))
	}
	id := len(c.forms)
	c.forms = append(c.forms, cf)
	c.byNode[nid] = id
	return id
}

// splitPieces returns the piece NodeIDs an interned formula contributes to
// an enclosing logic.And: a conjunction contributes its children
// (one-level flattening, aliasing the node's kid slice), ⊤ contributes
// nothing, ⊥ collapses the conjunction. Shapes And() would rewrite further
// (nested FAnd or boolean constants inside a conjunction) are flagged
// degenerate; they never arise from the smart constructors.
func (c *Context) splitPieces(id logic.NodeID) (pieces []logic.NodeID, isFalse, degenerate bool) {
	switch c.in.Kind(id) {
	case logic.KTrue:
		return nil, false, false
	case logic.KFalse:
		return nil, true, false
	case logic.KAnd:
		kids := c.in.Kids(id)
		for _, k := range kids {
			switch c.in.Kind(k) {
			case logic.KTrue, logic.KFalse, logic.KAnd:
				return nil, false, true
			}
		}
		return kids, false, false
	default:
		return []logic.NodeID{id}, false, false
	}
}

// ensureNeg computes the goal-side (¬f) compilation on first use.
func (c *Context) ensureNeg(id int) {
	cf := &c.forms[id]
	if cf.negReady {
		return
	}
	cf.negReady = true
	ng := logic.Not(cf.f)
	ngID := c.in.InternFormula(ng)
	var isFalse bool
	cf.negIDs, isFalse, cf.negFallback = c.splitPieces(ngID)
	if isFalse {
		// ¬goal ≡ ⊥, i.e. the goal is ⊤: the composed query collapses;
		// let the stateless pipeline handle the degenerate shape.
		cf.negFallback = true
	}
	if !cf.negFallback {
		cf.negLits, cf.negIsLit = literalConjunction(c.in, logic.NNF(ng))
	}
}

// EntailsAssuming reports whether the asserted formulas selected by cone
// entail goal, i.e. whether ⋀ cone ∧ ¬goal is unsatisfiable. Conservative:
// false when undecided. aids is the caller's full assertion list (the memo
// key — equal lists imply an equal query); cone lazily selects the
// assertion ids actually sent to the solver and is invoked only on a memo
// miss.
func (c *Context) EntailsAssuming(aids []int, goal logic.Formula, cone func() []int) bool {
	return c.CheckAssuming(aids, goal, cone) == Unsat
}

// CheckAssuming decides satisfiability of ⋀ cone() ∧ ¬goal, memoized on
// (aids, goal).
func (c *Context) CheckAssuming(aids []int, goal logic.Formula, cone func() []int) Result {
	c.stats.Checks++
	s := c.solver
	gid := c.internGoal(goal)
	key := c.memoKey(aids, gid)
	if r, ok := c.memo[string(key)]; ok {
		c.stats.MemoHits++
		s.Stats.Queries++
		s.Stats.CacheHits++
		if s.Trace != nil {
			s.Trace(c.composeFormula(cone(), gid), r, true)
		}
		return r
	}
	mkey := string(key)
	sel := cone()
	key2 := c.coneKey(sel, gid)
	if r, ok := c.coneMemo[string(key2)]; ok {
		c.stats.MemoHits++
		s.Stats.Queries++
		s.Stats.CacheHits++
		c.memo[mkey] = r
		if s.Trace != nil {
			s.Trace(c.composeFormula(sel, gid), r, true)
		}
		return r
	}
	mkey2 := string(key2)
	c.ensureNeg(gid)
	g := &c.forms[gid]

	// Compose the query node from memoized piece ids, tracking whether the
	// literal fast path applies. Degenerate shapes defer to the stateless
	// pipeline wholesale.
	if g.negFallback {
		return c.fallback(mkey, mkey2, sel, gid)
	}
	ids := c.idsBuf[:0]
	allLit := true
	for _, id := range sel {
		cf := &c.forms[id]
		if cf.degenerate || cf.isFalse {
			return c.fallback(mkey, mkey2, sel, gid)
		}
		// And() splices FAnd children into the enclosing conjunction, so a
		// form always contributes its flattened pieces (none for ⊤).
		ids = append(ids, cf.pieceIDs...)
		allLit = allLit && cf.isLit
	}
	ids = append(ids, g.negIDs...)
	allLit = allLit && g.negIsLit

	s.Stats.Queries++
	// The composed conjunction node: structurally equal to the formula
	// logic.And would build from the same pieces, so its hash keys the
	// shared cache exactly where a stateless solver's query lands.
	qid := c.in.MkAnd(ids)
	c.idsBuf = ids[:0]
	nPieces := len(ids)
	h := c.in.Hash(qid)
	// Shared-cache layering: decided entries are facts and always reusable.
	// A budget-keyed Unknown is reusable on the literal path, where the
	// context's answer is the stateless theory check's answer — a function
	// of the query and the budgets alone, the rule Solver.Check follows —
	// so an expiry is paid once per cache, not once per run. On the boolean
	// path it is recomputed: a warm CDCL instance can decide what the cache
	// recorded as Unknown, and trusting the entry would make the verdict
	// depend on which worker published first.
	if r, ok := s.cache.Get(h, c.in, qid, s.MaxConflicts, s.MaxLazyIters); ok && (r != Unknown || allLit) {
		c.stats.SharedHits++
		s.Stats.CacheHits++
		c.memo[mkey] = r
		c.coneMemo[mkey2] = r
		if s.Trace != nil {
			s.Trace(c.composeFormula(sel, gid), r, true)
		}
		return r
	}

	var r Result
	fromStateless := true
	if nPieces == 0 {
		// The composed query is ⊤.
		r = Sat
	} else if allLit {
		lits := c.litBuf[:0]
		for _, id := range sel {
			lits = append(lits, c.forms[id].lits...)
		}
		lits = append(lits, g.negLits...)
		c.litBuf = lits[:0]
		c.stats.TheoryChecks++
		switch s.checkTheory(c.in, lits) {
		case theoryUnsat:
			r = Unsat
		case theorySat:
			r = Sat
		default:
			r = Unknown
		}
	} else {
		r = c.solveBool(sel, gid)
		fromStateless = false
		if r == Unknown {
			// Budget exhausted on the warm instance: defer to the stateless
			// pipeline so the published verdict matches a fresh solver's.
			c.stats.Fallbacks++
			r = s.check(c.composeFormula(sel, gid))
			fromStateless = true
		}
	}
	if r == Unknown {
		s.Stats.Unknowns++
	}
	if fromStateless {
		s.cache.Put(h, c.in, qid, r, s.MaxConflicts, s.MaxLazyIters)
	}
	c.memo[mkey] = r
	c.coneMemo[mkey2] = r
	if s.Trace != nil {
		s.Trace(c.composeFormula(sel, gid), r, false)
	}
	return r
}

// fallback delegates one query to the stateless pipeline (Solver.Check
// counts, caches, and traces it exactly as before contexts existed).
func (c *Context) fallback(mkey, mkey2 string, sel []int, gid int) Result {
	c.stats.Fallbacks++
	r := c.solver.Check(c.composeFormula(sel, gid))
	c.memo[mkey] = r
	c.coneMemo[mkey2] = r
	return r
}

func (c *Context) internGoal(goal logic.Formula) int {
	nid := c.in.InternFormula(goal)
	if id, ok := c.byNode[nid]; ok {
		return id
	}
	return c.intern(goal, nid)
}

func (c *Context) memoKey(aids []int, gid int) []byte {
	buf := c.keyBuf[:0]
	for _, id := range aids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = append(buf, 0xff)
	buf = binary.AppendUvarint(buf, uint64(gid))
	c.keyBuf = buf
	return buf
}

func (c *Context) coneKey(sel []int, gid int) []byte {
	buf := c.key2Buf[:0]
	for _, id := range sel {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = append(buf, 0xff)
	buf = binary.AppendUvarint(buf, uint64(gid))
	c.key2Buf = buf
	return buf
}

// composeFormula rebuilds the actual query formula ⋀ sel ∧ ¬goal, exactly
// as the pre-context pipeline composed it; used for fallbacks and tracing.
func (c *Context) composeFormula(sel []int, gid int) logic.Formula {
	fs := make([]logic.Formula, len(sel))
	for i, id := range sel {
		fs[i] = c.forms[id].f
	}
	return logic.And(logic.And(fs...), logic.Not(c.forms[gid].f))
}

// ---- incremental boolean path ----

// incCNF is a persistent Tseitin encoder feeding one incremental CDCL
// instance. Definitional clauses state only v ↔ subformula equivalences —
// they are valid regardless of which formulas are asserted — so encodings
// are memoized by interned NodeID and shared across checks; asserting a
// formula is assuming its root literal.
type incCNF struct {
	nvars   int
	atomVar map[logic.NodeID]int
	varAtom map[int]logic.NodeID
	compVar map[logic.NodeID]int
	sat     *cdcl
	// defClauses counts definitional clauses; anything beyond them in the
	// instance's database is a learned or blocking clause surviving from an
	// earlier check.
	defClauses int
}

func newIncCNF() *incCNF {
	return &incCNF{
		atomVar: map[logic.NodeID]int{},
		varAtom: map[int]logic.NodeID{},
		compVar: map[logic.NodeID]int{},
		sat:     newCDCL(0, nil, 0),
	}
}

func (b *incCNF) fresh() int {
	b.nvars++
	b.sat.ensureVars(b.nvars)
	return b.nvars
}

func (b *incCNF) clause(lits ...int) {
	b.sat.addClause(lits)
	b.defClauses++
}

func (b *incCNF) carried() int { return len(b.sat.clauses) - b.defClauses }

// encode returns a literal equivalent to the interned formula node id,
// memoized on NodeID (hash-consing makes equal subformulas the same key).
func (b *incCNF) encode(in *logic.Interner, id logic.NodeID) int {
	switch in.Kind(id) {
	case logic.KTrue:
		if v, ok := b.compVar[id]; ok {
			return v
		}
		v := b.fresh()
		b.clause(v)
		b.compVar[id] = v
		return v
	case logic.KFalse:
		if v, ok := b.compVar[id]; ok {
			return v
		}
		v := b.fresh()
		b.clause(-v)
		b.compVar[id] = v
		return v
	case logic.KAtom:
		if v, ok := b.atomVar[id]; ok {
			return v
		}
		v := b.fresh()
		b.atomVar[id] = v
		b.varAtom[v] = id
		return v
	case logic.KNot:
		return -b.encode(in, in.Kids(id)[0])
	case logic.KAnd:
		if v, ok := b.compVar[id]; ok {
			return v
		}
		kids := in.Kids(id)
		lgs := make([]int, len(kids))
		for i, k := range kids {
			lgs[i] = b.encode(in, k)
		}
		v := b.fresh()
		all := make([]int, 0, len(lgs)+1)
		for _, lg := range lgs {
			b.clause(-v, lg)
			all = append(all, -lg)
		}
		all = append(all, v)
		b.clause(all...)
		b.compVar[id] = v
		return v
	case logic.KOr:
		if v, ok := b.compVar[id]; ok {
			return v
		}
		kids := in.Kids(id)
		lgs := make([]int, len(kids))
		for i, k := range kids {
			lgs[i] = b.encode(in, k)
		}
		v := b.fresh()
		all := make([]int, 0, len(lgs)+1)
		for _, lg := range lgs {
			b.clause(v, -lg)
			all = append(all, lg)
		}
		all = append(all, -v)
		b.clause(all...)
		b.compVar[id] = v
		return v
	}
	panic("smt: unknown formula")
}

// collectAtomIDs gathers the distinct atom nodes of a formula node in
// first-occurrence order.
func collectAtomIDs(in *logic.Interner, id logic.NodeID, seen map[logic.NodeID]bool, out []logic.NodeID) []logic.NodeID {
	switch in.Kind(id) {
	case logic.KAtom:
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	case logic.KNot, logic.KAnd, logic.KOr:
		for _, k := range in.Kids(id) {
			out = collectAtomIDs(in, k, seen, out)
		}
	}
	return out
}

// encodeForm encodes an interned formula once, recording its root literal
// and the sorted atom variables of its cone for model extraction.
func (c *Context) encodeForm(cf *cform) {
	if cf.encoded {
		c.stats.CNFMemoHits++
		return
	}
	cf.root = c.enc.encode(c.in, cf.id)
	atoms := collectAtomIDs(c.in, cf.id, map[logic.NodeID]bool{}, nil)
	vars := make([]int, 0, len(atoms))
	for _, a := range atoms {
		vars = append(vars, c.enc.atomVar[a])
	}
	sort.Ints(vars)
	cf.atomVars = vars
	cf.encoded = true
}

// solveBool runs the lazy CEGAR loop on the persistent instance: selected
// assertions and the negated goal enter as assumptions; counterexample
// models are restricted to the atoms of the selected formulas (matching the
// stateless pipeline's view) before the theory check; blocking clauses from
// theory conflicts are added permanently — they are theory facts.
func (c *Context) solveBool(sel []int, gid int) Result {
	s := c.solver
	if c.enc == nil {
		c.enc = newIncCNF()
	}
	enc := c.enc
	assumps := make([]int, 0, len(sel)+1)
	for _, id := range sel {
		cf := &c.forms[id]
		c.encodeForm(cf)
		assumps = append(assumps, cf.root)
	}
	g := &c.forms[gid]
	c.encodeForm(g)
	assumps = append(assumps, -g.root)

	// Union of the selected formulas' atom variables, sorted: extraction
	// order is deterministic and scoped to this query's atoms.
	var union []int
	for _, id := range sel {
		union = append(union, c.forms[id].atomVars...)
	}
	union = append(union, g.atomVars...)
	sort.Ints(union)
	n := 0
	for i, v := range union {
		if i == 0 || union[i-1] != v {
			union[n] = v
			n++
		}
	}
	union = union[:n]

	c.stats.SATChecks++
	if enc.carried() > 0 {
		c.stats.ClauseReuses++
	}
	for iter := 0; iter < s.MaxLazyIters; iter++ {
		s.Stats.SatIters++
		st, model := enc.sat.solveAssume(assumps, s.MaxConflicts)
		if st == satUnsat {
			return Unsat
		}
		if st == satUnknown {
			return Unknown
		}
		var lits []theoryLit
		var vars []int
		for _, v := range union {
			if model[v] == 0 {
				continue
			}
			lits = append(lits, litOfAtomNode(c.in, enc.varAtom[v], model[v] == 1))
			vars = append(vars, v)
		}
		switch s.checkTheory(c.in, lits) {
		case theorySat:
			return Sat
		case theoryUnknown:
			return Unknown
		}
		core, coreVars := s.minimizeCore(c.in, lits, vars)
		clause := make([]int, len(core))
		for i := range core {
			if core[i].pos {
				clause[i] = -coreVars[i]
			} else {
				clause[i] = coreVars[i]
			}
		}
		enc.sat.addClause(clause)
		c.stats.BlockingKept++
	}
	return Unknown
}
