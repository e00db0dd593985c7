package smt

import (
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
			ctx := NewSolvingContext()
			ctx.BeginRun(New())
			aids := make([]int, len(tc.hyps))
			for i, h := range tc.hyps {
				aids[i] = ctx.Assert(h)
			}
			got := ctx.CheckAssuming(aids, tc.goal, func() []int { return aids })
			if got != want {
				t.Fatalf("context verdict %v, Solver.Check %v\nquery: %s", got, want, composed)
			}
			if st := ctx.Stats(); st.Fallbacks != 1 || st.Checks != 1 {
				t.Fatalf("stats %+v: want one check, taken by the fallback", st)
			}
			// The fallback memoizes its verdict: asking again is a memo hit.
			if again := ctx.CheckAssuming(aids, tc.goal, func() []int { return aids }); again != got {
				t.Fatalf("re-check changed the verdict: %v then %v", got, again)
			}
			if st := ctx.Stats(); st.Fallbacks != 1 || st.MemoHits != 1 {
				t.Fatalf("stats after the re-check %+v: want one memo hit, no second fallback", st)
			}
		})
	}
}
