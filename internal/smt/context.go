package smt

import (
	"encoding/binary"
	"slices"

	"consolidation/internal/logic"
)

// Context is an assumption-based solving context that amortizes Ω's
// validity queries across one consolidation run: Consolidator.merge
// creates one per pair, bound to the pair's solver, and drops it when the
// pair returns. Ω asserts each context conjunct Ψᵢ once — Assert interns
// the formula into the context's hash-consing arena and memoizes its
// conjunction pieces, its literal compilation, and (lazily) its CNF
// encoding — and every entailment check Ψ' ⊨ φ then selects the assertion
// ids of the goal's cone of influence instead of rebuilding the
// conjunction from scratch:
//
//   - A verdict memo keyed by (selected assertion ids, goal id) answers a
//     repeated query without composing it. Ψ grows between checks, but the
//     cone of a goal often does not.
//   - On a memo miss the composed query node is built from the memoized
//     per-assertion piece NodeIDs (one MkAnd over interned ids, not a
//     formula walk) and the shared Cache is consulted by the node's
//     α-hash, so verdicts flow between parallel pair workers and between
//     renamed copies of one query. The composed node is structurally
//     identical to the formula the stateless pipeline builds for the same
//     query, and α-hashes agree across arenas, so cache entries published
//     by either side hit the other.
//   - Literal-conjunction queries — the overwhelming majority — reuse the
//     per-assertion theoryLit slices and run one stateless theory check,
//     identical to the fresh solver's fast path; a budget-keyed Unknown in
//     the shared Cache is therefore their answer too and is not re-solved.
//   - Queries with boolean structure run the stateless pipeline's lazy loop
//     on a persistent CDCL instance: Tseitin encodings are memoized across
//     checks (definitional clauses are valid regardless of which formulas
//     are asserted), the selected assertions enter as assumption literals,
//     and learned clauses and theory-conflict blocking clauses survive to
//     later checks. Clauses that depended on retracted assumptions are
//     never unsoundly reused: assumptions are decisions, so learned clauses
//     are implied by the clause database alone, and blocking clauses are
//     theory facts. The loop's theory checks and minimized conflict cores
//     come from, and go to, the shared Cache as lemmas.
//
// Soundness vs the stateless pipeline: decided verdicts (Sat/Unsat) can
// never disagree between the two — both are sound in both directions — so
// reuse can only move a verdict across the Unknown budget edge. To keep the
// shared Cache schedule-independent (the determinism oracle compares serial
// and parallel runs byte for byte), the boolean path publishes a verdict to
// the shared Cache only when it came from the stateless pipeline; verdicts
// decided by the warm incremental instance stay in the context's memo, while
// its theory lemmas, true whatever the instance learned, are shared. When
// the incremental instance exhausts its budget the query falls back to the
// stateless pipeline, so a Context is never *less* decisive than a fresh
// solver on the paths the cache observes.
//
// A Context is not safe for concurrent use; parallel pair workers each
// create their own and share only the Cache.
type Context struct {
	solver *Solver

	// in is the context's private hash-consing arena; every asserted
	// formula, goal, and composed query lives in it as a NodeID.
	in     *logic.Interner
	byNode map[logic.NodeID]int
	forms  []cform

	// memo caches verdicts by the selected assertion ids and the goal id.
	// Equal selections compose the same query node, so a hit is exactly a
	// shared-cache hit without the composition. It keeps the assignment
	// with the verdict, as the shared Cache does.
	memo map[string]verdict

	enc *incCNF

	coneBuf []byte
	litBuf  []theoryLit
	idsBuf  []logic.NodeID
	// alpha builds each composed query's cache key (logic.AlphaKey).
	alpha logic.AlphaScratch

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

// ContextStats counts the amortization a Context achieved over its run.
type ContextStats struct {
	// Checks counts entailment checks; MemoHits the ones answered by the
	// context's verdict memo.
	Checks   int
	MemoHits int
	// TheoryChecks counts literal-path theory checks issued by the context.
	TheoryChecks int
	// Fallbacks counts queries delegated to the stateless pipeline
	// (degenerate shapes, or incremental budget exhaustion).
	Fallbacks int
}

// Add accumulates o into s.
func (s *ContextStats) Add(o ContextStats) {
	s.Checks += o.Checks
	s.MemoHits += o.MemoHits
	s.TheoryChecks += o.TheoryChecks
	s.Fallbacks += o.Fallbacks
}

// NewSolvingContext returns an empty context bound to s: every check runs
// on s, under its budgets and over its Cache.
func NewSolvingContext(s *Solver) *Context {
	return &Context{
		solver: s,
		in:     logic.NewInterner(),
		byNode: map[logic.NodeID]int{},
		memo:   map[string]verdict{},
	}
}

// Stats snapshots the context's counters.
func (c *Context) Stats() ContextStats { return c.stats }

// Assert interns a context conjunct and returns its assertion id. Equal
// formulas (by interned node) share an id, so re-asserting across record
// pairs and cloned symbolic contexts costs one intern walk (all dedup
// hits) plus one map lookup.
func (c *Context) Assert(f logic.Formula) int {
	nid := c.in.InternFormula(f)
	if id, ok := c.byNode[nid]; ok {
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

// EntailsAssuming reports whether the asserted formulas selected by sel
// entail goal, i.e. whether ⋀ sel ∧ ¬goal is unsatisfiable. Conservative:
// false when undecided.
func (c *Context) EntailsAssuming(sel []int, goal logic.Formula) bool {
	return c.CheckAssuming(sel, goal) == Unsat
}

// CheckAssuming decides satisfiability of ⋀ sel ∧ ¬goal, memoized on
// (sel, goal).
func (c *Context) CheckAssuming(sel []int, goal logic.Formula) Result {
	return c.check(sel, goal, false).r
}

// CheckAssumingModel is CheckAssuming that also returns, when the query is
// a conjunction of literals and the verdict is not Unsat, the assignment
// the theory check ended on (Solver.CheckModel's rule). The memo and the
// shared Cache keep it with the verdict, so every hit returns it too.
func (c *Context) CheckAssumingModel(sel []int, goal logic.Formula) (Result, *logic.Model) {
	v := c.check(sel, goal, true)
	return v.r, v.m
}

func (c *Context) check(sel []int, goal logic.Formula, want bool) verdict {
	c.stats.Checks++
	s := c.solver
	gid := c.internGoal(goal)
	key := c.coneKey(sel, gid)
	if v, ok := c.memo[string(key)]; ok && v.answers(want) {
		c.stats.MemoHits++
		s.Stats.Queries++
		s.Stats.CacheHits++
		if s.Trace != nil {
			s.Trace(c.composeFormula(sel, gid), v.r, true)
		}
		return v
	}
	mkey := string(key)
	c.ensureNeg(gid)
	g := &c.forms[gid]

	// Compose the query node from memoized piece ids, tracking whether the
	// literal fast path applies. Degenerate shapes defer to the stateless
	// pipeline wholesale.
	if g.negFallback {
		return c.fallback(mkey, sel, gid, want)
	}
	ids := c.idsBuf[:0]
	allLit := true
	for _, id := range sel {
		cf := &c.forms[id]
		if cf.degenerate || cf.isFalse {
			return c.fallback(mkey, sel, gid, want)
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
	// logic.And would build from the same pieces, so its α-key lands in the
	// shared cache exactly where a stateless solver's query lands.
	qid := c.in.MkAnd(ids)
	c.idsBuf = ids[:0]
	nPieces := len(ids)
	k := c.in.AlphaKey(&c.alpha, qid)
	// Shared-cache layering: decided entries are facts and always reusable.
	// A budget-keyed Unknown is reusable on the literal path, where the
	// context's answer is the stateless theory check's answer — a function
	// of the query and the budgets alone, the rule Solver.Check follows —
	// so an expiry is paid once per cache, not once per run. On the boolean
	// path it is recomputed: a warm CDCL instance can decide what the cache
	// recorded as Unknown, and trusting the entry would make the verdict
	// depend on which worker published first. The assignment follows the
	// same rule: only the literal path takes one.
	if v, ok := s.cache.get(k, c.in, s.MaxConflicts, s.MaxLazyIters, want); ok && (v.r != Unknown || allLit) {
		s.Stats.CacheHits++
		c.memo[mkey] = v
		if s.Trace != nil {
			s.Trace(c.composeFormula(sel, gid), v.r, true)
		}
		return v
	}

	v := verdict{asked: want}
	fromStateless := true
	if nPieces == 0 {
		// The composed query is ⊤.
		v.r = Sat
	} else if allLit {
		lits := c.litBuf[:0]
		for _, id := range sel {
			lits = append(lits, c.forms[id].lits...)
		}
		lits = append(lits, g.negLits...)
		c.litBuf = lits[:0]
		c.stats.TheoryChecks++
		v = s.theoryVerdict(c.in, lits, want)
	} else {
		v.r = c.solveBool(sel, gid)
		fromStateless = false
		if v.r == Unknown {
			// Budget exhausted on the warm instance: defer to the stateless
			// pipeline so the published verdict matches a fresh solver's.
			c.stats.Fallbacks++
			v.r = s.check(c.composeFormula(sel, gid), false).r
			fromStateless = true
		}
	}
	if v.r == Unknown {
		s.Stats.Unknowns++
	}
	if fromStateless {
		s.cache.put(k, c.in, v, nil, s.MaxConflicts, s.MaxLazyIters)
	}
	c.memo[mkey] = v
	if s.Trace != nil {
		s.Trace(c.composeFormula(sel, gid), v.r, false)
	}
	return v
}

// fallback delegates one query to the stateless pipeline (Solver.Check
// counts, caches, and traces it exactly as before contexts existed).
func (c *Context) fallback(mkey string, sel []int, gid int, want bool) verdict {
	c.stats.Fallbacks++
	v := c.solver.checkCached(c.composeFormula(sel, gid), want)
	c.memo[mkey] = v
	return v
}

func (c *Context) internGoal(goal logic.Formula) int {
	nid := c.in.InternFormula(goal)
	if id, ok := c.byNode[nid]; ok {
		return id
	}
	return c.intern(goal, nid)
}

func (c *Context) coneKey(sel []int, gid int) []byte {
	buf := c.coneBuf[:0]
	for _, id := range sel {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = append(buf, 0xff)
	buf = binary.AppendUvarint(buf, uint64(gid))
	c.coneBuf = buf
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

// ---- boolean path ----

// incCNF is a Tseitin encoder over interned NodeIDs feeding one incremental
// CDCL instance; a stateless check encodes into a fresh one, a Context keeps
// one across checks. Definitional clauses state only v ↔ subformula
// equivalences — they are valid regardless of which formulas are asserted —
// so encodings are memoized by NodeID and shared across checks; asserting a
// formula is assuming its root literal.
type incCNF struct {
	nvars   int
	atomVar map[logic.NodeID]int
	varAtom map[int]logic.NodeID
	compVar map[logic.NodeID]int
	sat     *cdcl
}

func newIncCNF() *incCNF {
	return &incCNF{
		atomVar: map[logic.NodeID]int{},
		varAtom: map[int]logic.NodeID{},
		compVar: map[logic.NodeID]int{},
		sat:     newCDCL(0, nil),
	}
}

func (b *incCNF) fresh() int {
	b.nvars++
	b.sat.ensureVars(b.nvars)
	return b.nvars
}

func (b *incCNF) clause(lits ...int) { b.sat.addClause(lits) }

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

// atomVars returns the sorted variables of the atoms of an encoded node,
// the literals the lazy loop hands the theory.
func (b *incCNF) atomVars(in *logic.Interner, id logic.NodeID) []int {
	atoms := collectAtomIDs(in, id, map[logic.NodeID]bool{}, nil)
	vars := make([]int, 0, len(atoms))
	for _, a := range atoms {
		vars = append(vars, b.atomVar[a])
	}
	slices.Sort(vars)
	return vars
}

// encodeForm encodes an interned formula once, recording its root literal
// and the sorted atom variables of its cone for model extraction.
func (c *Context) encodeForm(cf *cform) {
	if cf.encoded {
		return
	}
	cf.root = c.enc.encode(c.in, cf.id)
	cf.atomVars = c.enc.atomVars(c.in, cf.id)
	cf.encoded = true
}

// solveBool runs the lazy loop on the persistent instance: selected
// assertions and the negated goal enter as assumptions, and counterexample
// models are restricted to the atoms of the selected formulas (matching the
// stateless pipeline's view) before the theory check.
func (c *Context) solveBool(sel []int, gid int) Result {
	if c.enc == nil {
		c.enc = newIncCNF()
	}
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
	slices.Sort(union)
	return c.solver.lazy(c.in, c.enc, assumps, slices.Compact(union))
}
