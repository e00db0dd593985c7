// Package prefilter synthesizes admission pre-filters (predicate pushdown)
// for merged programs: from a consolidated lang.Program it derives a sound
// admission guard — a necessary condition for *any* notification —
// restricted to a cheap fragment, so the engine can reject most records
// with a handful of comparisons instead of a full merged-program run.
//
// The pipeline is:
//
//  1. Collect the path condition of every `notify id true` site with the
//     sym strongest-postcondition machinery (sym.CollectNotifyTrue). Call
//     results stay abstract (uninterpreted symbols), joins and loops havoc,
//     so each condition over-approximates reachability of its site.
//  2. Project each condition onto the cheap fragment: substitute defining
//     equalities to eliminate SSA-versioned locals, convert to NNF, and
//     replace every literal that mentions a havocked variable or a library
//     call priced above Options.MaxCallCost with ⊤. Replacing a literal
//     with ⊤ in NNF is monotone, so the projected condition is weaker than
//     (implied by) the original — necessity is preserved.
//  3. The guard G₀ is the disjunction of the projected conditions. Cheaper
//     candidate weakenings (interval-merged thresholds per field term,
//     single-literal disjuncts) are generated syntactically, each verified
//     against the SMT layer (G₀ ⇒ candidate, shared smt.Cache; candidates
//     an Unknown verdict cannot confirm are discarded), and the cheapest
//     verified candidate under the Figure 2 cost model wins.
//  4. The winner is rendered back to a lang.Program (`notify 0 (test)`)
//     and compiled for the bytecode VM.
//
// Synthesis cannot fail: any bound overflow, inexpressible condition or
// unverifiable candidate degrades to the trivial guard ⊤, which never
// filters — soundness never depends on the synthesizer succeeding.
package prefilter

import (
	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

// Defaults for the zero Options values.
const (
	// DefaultMaxCallCost keeps only storage-layer field reads (columnar
	// metadata accessors) in the guard; token/series-scanning functions in
	// the bundled datasets are priced 80+.
	DefaultMaxCallCost = 8
	// DefaultMaxCalls bounds call occurrences in the guard expression.
	DefaultMaxCalls = 8
	// DefaultMaxSize bounds the guard expression's node count.
	DefaultMaxSize = 96
	// DefaultMaxContexts bounds the symbolic walk's context count.
	DefaultMaxContexts = 256
)

// costModel prices candidate guards (Figure 2), as Ω's cost comparisons
// do: the default model.
var costModel = lang.DefaultCostModel()

// Options configures guard synthesis.
type Options struct {
	// Solver verifies candidate weakenings; nil creates one over Cache.
	Solver *smt.Solver
	// Cache backs the created solver when Solver is nil; nil means a
	// private cache.
	Cache *smt.Cache
	// Coster prices library calls, both for the fragment bound and for
	// candidate selection. Calls it does not price cost the default cost
	// model's CallBase.
	Coster lang.FuncCoster
	// MaxCallCost excludes calls priced above it from the guard fragment
	// (their atoms are weakened to ⊤). 0 means DefaultMaxCallCost; the
	// engine passes the dataset's lite-decode bound.
	MaxCallCost int64
	// MaxCalls bounds call occurrences in the guard; 0 means default.
	MaxCalls int
	// MaxSize bounds the guard expression size; 0 means default.
	MaxSize int
}

// Guard is the synthesized admission pre-filter of one merged program. A
// trivial guard (Trivial == true) admits everything and has no compiled
// form; callers skip the filter stage entirely.
type Guard struct {
	// Formula over the merged program's parameters and cheap calls:
	// implied whenever any notify-true site executes.
	Formula logic.Formula
	// Test is Formula rendered as a source boolean expression.
	Test lang.BoolExpr
	// Prog wraps Test as `notify 0 (Test)` over the merged parameters.
	Prog *lang.Program
	// Compiled is Prog lowered for lang.NewRunner.
	Compiled *lang.Compiled
	// NoteIdx is the dense note slot of notify id 0 in Compiled.
	NoteIdx int
	// Cost is the static Figure 2 cost of one guard evaluation.
	Cost int64
	// Trivial marks the ⊤ fallback (never filters).
	Trivial bool

	// Conds are the collected notify-path conditions (SSA-versioned), kept
	// for the oracle's direct necessity checks. Nil when the walk overflowed.
	Conds []sym.NotifyCond
	// Candidates and Verified count the weakenings considered and the SMT
	// checks that confirmed one.
	Candidates int
	Verified   int
}

// Admits reports the guard verdict for a finished runner execution.
func (g *Guard) Admits(rn *lang.Runner) bool {
	v, ok := rn.NoteAt(g.NoteIdx)
	return !ok || v
}

func trivial(conds []sym.NotifyCond) *Guard {
	return &Guard{Formula: logic.FTrue{}, Test: lang.BoolConst{Value: true}, Trivial: true, Conds: conds}
}

// Synthesize derives the admission guard of a merged program. It never
// fails: every degenerate case returns the trivial guard.
func Synthesize(merged *lang.Program, opts Options) *Guard {
	if opts.MaxCallCost == 0 {
		opts.MaxCallCost = DefaultMaxCallCost
	}
	if opts.MaxCalls == 0 {
		opts.MaxCalls = DefaultMaxCalls
	}
	if opts.MaxSize == 0 {
		opts.MaxSize = DefaultMaxSize
	}
	if opts.Solver == nil {
		if opts.Cache == nil {
			opts.Cache = smt.NewCache(0)
		}
		opts.Solver = smt.NewWithCache(opts.Cache)
	}

	conds, complete := sym.CollectNotifyTrue(merged, DefaultMaxContexts)
	if !complete {
		// Unreached notify sites may be missing: no sound guard derivable.
		return trivial(nil)
	}

	params := map[string]bool{}
	for _, p := range merged.Params {
		params[p] = true
	}
	pr := &projector{opts: &opts, params: params}

	in := logic.NewInterner()
	seen := map[logic.NodeID]bool{}
	var disjuncts []logic.Formula
	for _, nc := range conds {
		d := pr.project(nc.Conjuncts)
		if _, isTrue := d.(logic.FTrue); isTrue {
			// One unconstrained notify site admits everything.
			return trivial(conds)
		}
		id := in.InternFormula(d)
		if !seen[id] {
			seen[id] = true
			disjuncts = append(disjuncts, d)
		}
	}
	g0 := logic.Or(disjuncts...) // FFalse when the program has no notify-true site

	best, candidates, verified := pickCandidate(g0, &opts)
	if _, isTrue := best.(logic.FTrue); isTrue {
		return trivial(conds)
	}
	test, ok := toBoolExpr(best)
	if !ok || lang.CountNodes[lang.Call](test) > opts.MaxCalls || lang.Size(test) > opts.MaxSize {
		return trivial(conds)
	}
	g := &Guard{
		Formula:    best,
		Test:       test,
		Conds:      conds,
		Candidates: candidates,
		Verified:   verified,
	}
	g.Prog = &lang.Program{
		Name:   merged.Name + "_guard",
		Params: append([]string(nil), merged.Params...),
		Body:   lang.Cond{Test: test, Then: lang.Notify{ID: 0, Value: true}, Else: lang.Notify{ID: 0, Value: false}},
	}
	compiled, err := lang.Compile(g.Prog)
	if err != nil {
		return trivial(conds)
	}
	g.Compiled = compiled
	g.NoteIdx, _ = compiled.NoteIndex(0)
	g.Cost = costModel.StaticBoolCost(test, opts.Coster) + costModel.Branch + costModel.Notify
	return g
}
