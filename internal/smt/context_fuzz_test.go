package smt

import (
	"math/rand"
	"testing"

	"consolidation/internal/logic"
)

// contextSeedInputs derives the assumption set and goal a context seed
// exercises: 2–4 random hypotheses Ψᵢ plus one goal φ, with the same
// generator biases the soundness fuzzer rotates through.
func contextSeedInputs(seed uint64) ([]logic.Formula, logic.Formula) {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := seedGenConfig(seed)
	hyps := make([]logic.Formula, 2+rng.Intn(3))
	for i := range hyps {
		hyps[i] = RandomFormula(rng, cfg)
	}
	return hyps, RandomFormula(rng, cfg)
}

// composeQuery builds ⋀ hyps ∧ ¬goal exactly as the stateless pipeline
// (and Context.composeFormula) composes validity queries.
func composeQuery(hyps []logic.Formula, goal logic.Formula) logic.Formula {
	return logic.And(logic.And(hyps...), logic.Not(goal))
}

// agreeVerdicts holds a context verdict to the stateless one. Whenever
// the stateless pipeline decides, the context must be byte-identical —
// including Unknown, which the context republishes via its stateless
// fallback rather than trusting a warm instance. When the stateless
// pipeline exhausts its budget, the warm incremental instance is allowed
// to decide (it is strictly more capable at the same budget and decided
// verdicts are sound facts); an extra Unsat is still held to the
// brute-force reference search.
func agreeVerdicts(t *testing.T, label string, got, want Result, query logic.Formula) {
	t.Helper()
	if want != Unknown {
		if got != want {
			t.Fatalf("%s: context verdict %v, fresh solver %v\nquery: %s", label, got, want, query)
		}
		return
	}
	if got == Unsat {
		if m, ok := RefSearch(query, DefaultRefConfig()); ok {
			t.Fatalf("%s: context says unsat (fresh solver unknown) but a model exists\nquery: %s\nmodel vars: %v", label, query, m.Vars)
		}
	}
}

// checkContextSeed is the incremental-context differential property: a
// persistent Context's verdict on (Ψ₁…Ψₙ ⊢? φ) must match a fresh
// stateless Solver on the composed formula — byte-identical wherever the
// stateless pipeline decides, and only soundly stronger where it
// exhausts. The property is asserted cold, after memo hits, after
// retraction (checking under a strict subset of the asserted ids), after
// re-expansion, under starved budgets, and across a budget-changing
// rebind; Unsat verdicts are additionally held to RefSearch.
func checkContextSeed(t *testing.T, seed uint64) {
	hyps, goal := contextSeedInputs(seed)
	composed := composeQuery(hyps, goal)

	fresh := New()
	want := fresh.Check(composed)

	ctx := NewSolvingContext()
	ctx.BeginRun(New())
	aids := make([]int, len(hyps))
	for i, h := range hyps {
		aids[i] = ctx.Assert(h)
	}
	cone := func() []int { return aids }
	got := ctx.CheckAssuming(aids, goal, cone)
	agreeVerdicts(t, "cold check", got, want, composed)
	if m, ok := RefSearch(composed, DefaultRefConfig()); ok && got == Unsat {
		t.Fatalf("context says unsat but a model exists\nquery: %s\nmodel vars: %v", composed, m.Vars)
	}
	if again := ctx.CheckAssuming(aids, goal, cone); again != got {
		t.Fatalf("memoized re-check changed verdict: %v then %v\nquery: %s", got, again, composed)
	}
	// The memo answered without an assignment; asking re-solves, changes no
	// verdict, and brings none with an Unsat.
	if again, m := ctx.CheckAssumingModel(aids, goal, cone); again != got || (again == Unsat && m != nil) {
		t.Fatalf("CheckAssumingModel = (%v, %v) after %v\nquery: %s", again, m, got, composed)
	}

	// Retraction: the caller drops the last assumption id. Learned clauses
	// from the full-set check must not leak into the narrower query.
	sub := aids[:len(aids)-1]
	subComposed := composeQuery(hyps[:len(hyps)-1], goal)
	subWant := fresh.Check(subComposed)
	subGot := ctx.CheckAssuming(sub, goal, func() []int { return sub })
	agreeVerdicts(t, "after retraction", subGot, subWant, subComposed)
	// Re-expansion back to the full set must reproduce the original verdict.
	if again := ctx.CheckAssuming(aids, goal, cone); again != got {
		t.Fatalf("verdict changed after retract/re-expand: %v then %v\nquery: %s", got, again, composed)
	}

	// Budget exhaustion: a starved context stays conservative — it must
	// never contradict the full-budget verdict, and must never publish
	// Unknown where the stateless pipeline decides at the same budget
	// (its Unknown path falls back to exactly that pipeline).
	tinyCtx := NewSolvingContext()
	tinySolver := New()
	tinySolver.MaxConflicts, tinySolver.MaxLazyIters = 1, 1
	tinyCtx.BeginRun(tinySolver)
	tinyAids := make([]int, len(hyps))
	for i, h := range hyps {
		tinyAids[i] = tinyCtx.Assert(h)
	}
	tinyGot := tinyCtx.CheckAssuming(tinyAids, goal, func() []int { return tinyAids })
	tinyFresh := New()
	tinyFresh.MaxConflicts, tinyFresh.MaxLazyIters = 1, 1
	tinyWant := tinyFresh.Check(composed)
	if tinyGot != Unknown && want != Unknown && tinyGot != want {
		t.Fatalf("budget-capped context decided %v, full budget %v\nquery: %s", tinyGot, want, composed)
	}
	if tinyGot == Unknown && tinyWant != Unknown {
		t.Fatalf("budget-capped context lost verdict %v the stateless pipeline decides\nquery: %s", tinyWant, composed)
	}
	agreeVerdicts(t, "budget-capped", tinyGot, tinyWant, composed)

	// Rebinding at different budgets resets the context (budget-keyed
	// memos are stale); the recycled context must agree with fresh again.
	tinyCtx.BeginRun(New())
	reAids := make([]int, len(hyps))
	for i, h := range hyps {
		reAids[i] = tinyCtx.Assert(h)
	}
	reGot := tinyCtx.CheckAssuming(reAids, goal, func() []int { return reAids })
	agreeVerdicts(t, "after budget rebind", reGot, want, composed)
}

// TestContextAgreementCampaign is the seeded acceptance campaign: 512
// consecutive seeds plus the checked-in corpus, each asserting verdict
// agreement between the persistent context and a fresh solver at default
// budgets (with the retraction, budget, and rebind variants).
func TestContextAgreementCampaign(t *testing.T) {
	n := uint64(512)
	if testing.Short() {
		n = 128
	}
	for seed := uint64(0); seed < n; seed++ {
		checkContextSeed(t, seed)
	}
	for _, s := range corpusSeeds(t) {
		checkContextSeed(t, s)
	}
}
