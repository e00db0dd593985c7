package smt

import "consolidation/internal/logic"

// Result is the verdict of a satisfiability check.
type Result int

// Verdicts. Unknown arises from resource caps and incomplete nonlinear
// reasoning and must be treated as "possibly satisfiable".
const (
	Unsat Result = iota
	Sat
	Unknown
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	case Unknown:
		return "unknown"
	}
	return "invalid"
}

// verdict is a check's result and, when the check asked for one, the
// assignment its theory check ended on. m is nil for Unsat (theoryVerdict
// never takes one) and whenever there was none; asked tells "there was
// none" apart from "none was asked for", so a cached verdict answers a
// check that asks only if it was computed for one that asked.
type verdict struct {
	r     Result
	m     *logic.Model
	asked bool
}

// answers reports whether a stored verdict answers a check: one that wants
// the assignment needs a verdict computed for a check that asked, or an
// Unsat, which has none either way.
func (v verdict) answers(want bool) bool { return !want || v.asked || v.r == Unsat }

// Stats counts solver activity, for the consolidation reports.
type Stats struct {
	Queries      int
	CacheHits    int
	SatIters     int
	TheoryChecks int
	// Pivots counts simplex check iterations over all theory checks: the
	// pivots performed plus one closing iteration per simplex check.
	Pivots int
	// Probes counts the Nelson–Oppen candidate pairs charged to the probe
	// budget, and ProbesAnswered those of them settled without probing
	// both halves: by an earlier probe's feasible point or by a feasible
	// first half.
	Probes         int
	ProbesAnswered int
	// Unknowns counts verdicts the budgets failed to decide.
	Unknowns int
}

// Add accumulates o into s; the consolidation driver merges per-pair
// solver stats with it.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.CacheHits += o.CacheHits
	s.SatIters += o.SatIters
	s.TheoryChecks += o.TheoryChecks
	s.Pivots += o.Pivots
	s.Probes += o.Probes
	s.ProbesAnswered += o.ProbesAnswered
	s.Unknowns += o.Unknowns
}

// Diff returns s - o, field-wise: the activity since snapshot o was taken.
func (s Stats) Diff(o Stats) Stats {
	return Stats{
		Queries:        s.Queries - o.Queries,
		CacheHits:      s.CacheHits - o.CacheHits,
		SatIters:       s.SatIters - o.SatIters,
		TheoryChecks:   s.TheoryChecks - o.TheoryChecks,
		Pivots:         s.Pivots - o.Pivots,
		Probes:         s.Probes - o.Probes,
		ProbesAnswered: s.ProbesAnswered - o.ProbesAnswered,
		Unknowns:       s.Unknowns - o.Unknowns,
	}
}

// Solver answers satisfiability and entailment queries in QF_UFLIA. It
// caches results in a Cache keyed by the formula modulo α-renaming:
// consolidation issues the same queries, up to variable names, while
// walking similar UDFs, and a Cache shared between solvers (NewWithCache)
// lets parallel consolidation workers reuse each other's verdicts — the
// keys agree across workers' private interners. A Solver itself is not
// safe for concurrent use; create one per goroutine and share the Cache.
type Solver struct {
	// MaxConflicts bounds CDCL search; exceeded means Unknown.
	MaxConflicts int
	// MaxLazyIters bounds the CEGAR loop between SAT core and theory.
	MaxLazyIters int
	// Theory configures the conjunction checker.
	Theory theoryConfig

	Stats Stats
	cache *Cache

	// in is the solver's private hash-consing arena: queried formulas are
	// interned once, and every downstream layer (cache key, literal
	// extraction, CNF atoms, theory terms) works on NodeIDs instead of
	// re-walking or re-rendering trees.
	in *logic.Interner

	// ws is the theory workspace every conjunction check of this solver
	// runs on (theory.go), created on first use.
	ws *theoryWorkspace

	// alpha builds each query's cache key (logic.AlphaKey).
	alpha logic.AlphaScratch

	// Trace, when set, observes every Check with its verdict and whether
	// the cache answered it. Diagnostic hook for the oracle and for
	// determinism debugging; leave nil in production paths.
	Trace func(f logic.Formula, r Result, cached bool)
}

// solverInternCap bounds the private arena; past it the arena is replaced
// at the next Check, which is safe because nothing keyed by NodeIDs
// outlives a single Check (the cache stores hashes and encodings, not IDs).
const solverInternCap = 1 << 18

// interner returns the private arena, creating it on first use so that
// zero-constructed Solvers in tests keep working.
func (s *Solver) interner() *logic.Interner {
	if s.in == nil {
		s.in = logic.NewInterner()
	}
	return s.in
}

// New returns a solver with default budgets and a private cache.
func New() *Solver { return NewWithCache(NewCache(0)) }

// NewWithCache returns a solver that shares the given query cache; cache
// must not be nil.
func NewWithCache(cache *Cache) *Solver {
	return &Solver{
		MaxConflicts: 200000,
		MaxLazyIters: 400,
		Theory:       defaultTheoryConfig(),
		cache:        cache,
	}
}

// Cache exposes the solver's query cache (for stats snapshots and sharing).
func (s *Solver) Cache() *Cache { return s.cache }

// Check decides satisfiability of f.
func (s *Solver) Check(f logic.Formula) Result { return s.checkCached(f, false).r }

// CheckModel is Check that also returns, when f is a conjunction of
// literals and the verdict is not Unsat, the assignment the theory check
// ended on (nil when it ended on none). The assignment is a function of f
// and the budgets alone, and is cached with the verdict. It is unproven:
// validate it (logic.Model.Decide) before relying on it.
func (s *Solver) CheckModel(f logic.Formula) (Result, *logic.Model) {
	v := s.checkCached(f, true)
	return v.r, v.m
}

func (s *Solver) checkCached(f logic.Formula, want bool) verdict {
	s.Stats.Queries++
	if s.in != nil && s.in.Len() > solverInternCap {
		s.in = logic.NewInterner()
	}
	in := s.interner()
	id := in.InternFormula(f)
	k := in.AlphaKey(&s.alpha, id)
	if v, ok := s.cache.get(k, in, s.MaxConflicts, s.MaxLazyIters, want); ok {
		s.Stats.CacheHits++
		if s.Trace != nil {
			s.Trace(f, v.r, true)
		}
		return v
	}
	v := s.check(f, want)
	if v.r == Unknown {
		s.Stats.Unknowns++
	}
	s.cache.put(k, in, v, s.MaxConflicts, s.MaxLazyIters)
	if s.Trace != nil {
		s.Trace(f, v.r, false)
	}
	return v
}

// Entails reports whether hyp ⊨ goal, i.e. hyp ∧ ¬goal is unsatisfiable.
// It returns false when the solver cannot decide, which is the
// conservative answer for the consolidation calculus.
func (s *Solver) Entails(hyp, goal logic.Formula) bool {
	return s.Check(logic.And(hyp, logic.Not(goal))) == Unsat
}

// EntailsAll is Entails with a conjunction of hypotheses.
func (s *Solver) EntailsAll(hyps []logic.Formula, goal logic.Formula) bool {
	return s.Entails(logic.And(hyps...), goal)
}

// check solves f. With want set, the literal path also takes the theory
// check's assignment; the boolean path never does, because what its theory
// checks see depends on the CDCL search, not on f alone.
func (s *Solver) check(f logic.Formula, want bool) verdict {
	switch f.(type) {
	case logic.FTrue:
		return verdict{r: Sat, asked: want}
	case logic.FFalse:
		return verdict{r: Unsat, asked: want}
	}
	in := s.interner()
	// Fast path: consolidation queries are overwhelmingly pure conjunctions
	// of literals (a context Ψ plus one negated goal literal). Those need no
	// SAT search at all — a single theory check decides them.
	if lits, ok := literalConjunction(in, logic.NNF(f)); ok {
		return s.theoryVerdict(in, lits, want)
	}
	// A stateless check is a fresh incremental instance with no
	// assumptions: the query's root literal is a unit clause.
	id := in.InternFormula(f)
	enc := newIncCNF()
	enc.clause(enc.encode(in, id))
	return verdict{r: s.lazy(in, enc, nil, enc.atomVars(in, id)), asked: want}
}

// theoryVerdict decides a conjunction of literals with one theory check
// and, with want set, takes the assignment it ended on.
func (s *Solver) theoryVerdict(src *logic.Interner, lits []theoryLit, want bool) verdict {
	v := verdict{asked: want}
	switch s.checkTheory(src, lits) {
	case theoryUnsat:
		return v
	case theorySat:
		v.r = Sat
	default:
		v.r = Unknown
	}
	if want {
		v.m = s.ws.assignment()
	}
	return v
}

// lazy is the DPLL(T) loop every boolean-structured query runs: enc's CDCL
// instance proposes a boolean model under assumps, the theory checks the
// literals of atomVars (sorted) the model assigns, and a theory conflict
// comes back as a minimised blocking clause. Blocking clauses are theory
// facts, so they stay in enc for later calls, as do learned clauses.
func (s *Solver) lazy(in *logic.Interner, enc *incCNF, assumps, atomVars []int) Result {
	for iter := 0; iter < s.MaxLazyIters; iter++ {
		s.Stats.SatIters++
		st, model := enc.sat.solveAssume(assumps, s.MaxConflicts)
		if st == satUnsat {
			return Unsat
		}
		if st == satUnknown {
			return Unknown
		}
		// Extract the theory literals in variable order so that
		// theory-solver behaviour (interning, probe order) is deterministic
		// across runs.
		var lits []theoryLit
		var vars []int
		for _, v := range atomVars {
			if model[v] == 0 {
				continue
			}
			lits = append(lits, litOfAtomNode(in, enc.varAtom[v], model[v] == 1))
			vars = append(vars, v)
		}
		switch s.checkTheory(in, lits) {
		case theorySat:
			return Sat
		case theoryUnknown:
			// Cannot certify the model nor refute it; answering Sat keeps
			// entailment conservative, but Unknown is more honest.
			return Unknown
		}
		// Theory conflict: minimise it and add a blocking clause.
		core, coreVars := s.minimizeCore(in, lits, vars)
		clause := make([]int, len(core))
		for i := range core {
			if core[i].pos {
				clause[i] = -coreVars[i]
			} else {
				clause[i] = coreVars[i]
			}
		}
		enc.sat.addClause(clause)
	}
	return Unknown
}

// checkTheory decides one conjunction of literals on the solver's theory
// workspace and counts the check, its pivots and its probes.
func (s *Solver) checkTheory(src *logic.Interner, lits []theoryLit) theoryStatus {
	if s.ws == nil {
		s.ws = newTheoryWorkspace()
	}
	ws := s.ws
	s.Stats.TheoryChecks++
	pivots, probes, answered := ws.pivots, ws.probes, ws.answered
	st := ws.check(src, lits, s.Theory)
	s.Stats.Pivots += ws.pivots - pivots
	s.Stats.Probes += ws.probes - probes
	s.Stats.ProbesAnswered += ws.answered - answered
	return st
}

// literalConjunction recognises a formula in NNF that is a conjunction of
// literals and extracts them, interning each atom's sides into in; second
// result is false otherwise.
func literalConjunction(in *logic.Interner, f logic.Formula) ([]theoryLit, bool) {
	var lits []theoryLit
	var walk func(logic.Formula) bool
	walk = func(f logic.Formula) bool {
		switch x := f.(type) {
		case logic.FTrue:
			return true
		case logic.FAtom:
			lits = append(lits, litOfAtomNode(in, in.InternFormula(x), true))
			return true
		case logic.FNot:
			if a, ok := x.F.(logic.FAtom); ok {
				lits = append(lits, litOfAtomNode(in, in.InternFormula(a), false))
				return true
			}
			return false
		case logic.FAnd:
			for _, g := range x.Fs {
				if !walk(g) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !walk(f) {
		return nil, false
	}
	return lits, true
}

// minimizeCore shrinks an inconsistent literal set by deletion: drop a
// literal, re-check, keep the drop if still inconsistent. Bounded so that
// large conjunctions do not trigger quadratic re-checking. src is the
// arena the literals' NodeIDs live in (the solver's own for stateless
// checks, the Context's for incremental ones).
func (s *Solver) minimizeCore(src *logic.Interner, lits []theoryLit, vars []int) ([]theoryLit, []int) {
	const maxMinimize = 48
	if len(lits) > maxMinimize {
		return lits, vars
	}
	core := append([]theoryLit(nil), lits...)
	cvars := append([]int(nil), vars...)
	for i := 0; i < len(core); {
		trial := make([]theoryLit, 0, len(core)-1)
		trial = append(trial, core[:i]...)
		trial = append(trial, core[i+1:]...)
		if s.checkTheory(src, trial) == theoryUnsat {
			core = trial
			cvars = append(cvars[:i], cvars[i+1:]...)
		} else {
			i++
		}
	}
	return core, cvars
}
