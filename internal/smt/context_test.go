package smt

import (
	"math/rand"
	"slices"
	"testing"

	"consolidation/internal/logic"
)

// TestContextFallback drives the shapes a Context hands to the stateless
// pipeline: assertions built without the smart constructors — a raw
// conjunction nested in a conjunction, ⊤ or ⊥ inside one, a bare ⊥ — and a
// goal whose negation is ⊥. Each verdict must equal Solver.Check on the
// composed formula, and each fallback must be counted.
func TestContextFallback(t *testing.T) {
	a, b := le(x(), y()), lt(y(), n(3))
	raw := func(fs ...logic.Formula) logic.Formula { return logic.FAnd{Fs: fs} }
	for _, tc := range []struct {
		name string
		hyps []logic.Formula
		goal logic.Formula
	}{
		{"nested conjunction", []logic.Formula{raw(raw(a, b), le(n(0), x()))}, lt(x(), n(3))},
		{"nested conjunction, refuted", []logic.Formula{raw(raw(a, b), le(n(0), x()))}, lt(x(), n(0))},
		{"true inside a conjunction", []logic.Formula{raw(logic.FTrue{}, a), b}, lt(x(), n(3))},
		{"false inside a conjunction", []logic.Formula{raw(a, logic.FFalse{})}, lt(x(), n(-5))},
		{"bare false", []logic.Formula{a, logic.FFalse{}}, eq(x(), y())},
		{"true goal", []logic.Formula{a}, logic.FTrue{}},
		{"true goal, no hypotheses", nil, logic.FTrue{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			composed := composeQuery(tc.hyps, tc.goal)
			want := New().Check(composed)
			ctx := NewSolvingContext(New())
			aids := make([]int, len(tc.hyps))
			for i, h := range tc.hyps {
				aids[i] = ctx.Assert(h)
			}
			got := ctx.CheckAssuming(aids, tc.goal)
			if got != want {
				t.Fatalf("context verdict %v, Solver.Check %v\nquery: %s", got, want, composed)
			}
			if st := ctx.Stats(); st.Fallbacks != 1 || st.Checks != 1 {
				t.Fatalf("stats %+v: want one check, taken by the fallback", st)
			}
			// The fallback memoizes its verdict: asking again is a memo hit.
			if again := ctx.CheckAssuming(aids, tc.goal); again != got {
				t.Fatalf("re-check changed the verdict: %v then %v", got, again)
			}
			if st := ctx.Stats(); st.Fallbacks != 1 || st.MemoHits != 1 {
				t.Fatalf("stats after the re-check %+v: want one memo hit, no second fallback", st)
			}
		})
	}
}

// TestContextFallsBackAfterWarmUnknown: when the warm instance runs out of
// conflicts on a query the stateless pipeline decides at the same budget,
// the context publishes the stateless verdict. Two satisfiable gadgets over
// variables the instance holds before the query's, each refuted by one
// conflict (a → b, a → ¬b, and a is decided true first), spend a budget of
// one conflict that a fresh instance never needs.
func TestContextFallsBackAfterWarmUnknown(t *testing.T) {
	hyps := []logic.Formula{logic.Or(lt(x(), n(0)), lt(y(), n(0)))}
	goal := lt(x(), n(5))
	s := New()
	s.MaxConflicts = 1
	want := New()
	want.MaxConflicts = 1
	if w := want.Check(composeQuery(hyps, goal)); w != Sat {
		t.Fatalf("stateless verdict %v at one conflict, want sat", w)
	}
	ctx := NewSolvingContext(s)
	ctx.enc = newIncCNF()
	for range 2 {
		a, b := ctx.enc.fresh(), ctx.enc.fresh()
		ctx.enc.clause(-a, b)
		ctx.enc.clause(-a, -b)
	}
	aids := []int{ctx.Assert(hyps[0])}
	if got := ctx.CheckAssuming(aids, goal); got != Sat {
		t.Fatalf("context verdict %v, stateless sat", got)
	}
	if st := ctx.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats %+v: want the warm instance's Unknown taken by the fallback", st)
	}
}

// TestContextsShareLemmas: the lazy loop's theory checks are lemmas in the
// shared cache. Three Contexts on one cache ask each seed's entailment and
// then its retraction: the first solves, the second asks the same queries,
// the third their α-renamed twins. The later two must reach the first's
// verdicts in the same number of SAT iterations, so every cached core
// blocked what the fresh solve blocked, and must issue no theory check at
// all: every lazy-loop check is a lemma hit and minimizeCore never runs.
func TestContextsShareLemmas(t *testing.T) {
	type step struct {
		r        Result
		satIters int
	}
	conflicted, hits := 0, 0
	for seed := uint64(0); seed < 128; seed++ {
		hyps, goal := contextSeedInputs(seed)
		ren := alphaRenaming(rand.New(rand.NewSource(int64(seed))), logic.Vars(composeQuery(hyps, goal)))
		twinHyps := make([]logic.Formula, len(hyps))
		for i, h := range hyps {
			twinHyps[i] = renameVars(h, ren)
		}
		cache := NewCache(0)
		run := func(hyps []logic.Formula, goal logic.Formula) ([]step, Stats) {
			s := NewWithCache(cache)
			c := NewSolvingContext(s)
			aids := make([]int, len(hyps))
			for i, h := range hyps {
				aids[i] = c.Assert(h)
			}
			var steps []step
			for _, sel := range [][]int{aids, aids[:len(aids)-1]} {
				pre := s.Stats.SatIters
				r := c.CheckAssuming(sel, goal)
				steps = append(steps, step{r, s.Stats.SatIters - pre})
			}
			return steps, s.Stats
		}
		first, _ := run(hyps, goal)
		for _, st := range first {
			if st.satIters > 1 {
				conflicted++
				break
			}
		}
		for _, ask := range []struct {
			label string
			hyps  []logic.Formula
			goal  logic.Formula
		}{{"same queries", hyps, goal}, {"renamed twins", twinHyps, renameVars(goal, ren)}} {
			got, st := run(ask.hyps, ask.goal)
			if !slices.Equal(got, first) {
				t.Fatalf("seed %d, %s: (verdict, SAT iterations) %v, fresh solve %v", seed, ask.label, got, first)
			}
			if st.TheoryChecks != 0 {
				t.Fatalf("seed %d, %s: %d theory checks on a cache that holds every lemma (%+v)", seed, ask.label, st.TheoryChecks, st)
			}
			hits += st.LemmaHits
		}
	}
	if conflicted < 10 || hits == 0 {
		t.Fatalf("%d seeds met a theory conflict and %d lemma hits; the stream no longer tests the lemmas", conflicted, hits)
	}
	t.Logf("%d of 128 seeds met a theory conflict; %d lemma hits", conflicted, hits)
}
