package smt

import (
	"math/rand"
	"testing"

	"consolidation/internal/logic"
)

// workspaceSeedQueries are the formulas one seed contributes to the
// workspace differential test: the soundness fuzzer's formula and its
// negation, and the context campaign's composed validity query with and
// without its last hypothesis.
func workspaceSeedQueries(seed uint64) []logic.Formula {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := seedGenConfig(seed)
	f := RandomFormula(rng, cfg)
	hyps, goal := contextSeedInputs(seed)
	return []logic.Formula{
		f, logic.Not(f),
		composeQuery(hyps, goal), composeQuery(hyps[:len(hyps)-1], goal),
	}
}

// overflowConj is a satisfiable conjunction over coefficients near c. With
// c near √MaxInt64 pivoting overflows int64 and promotes tableau cells to
// big.Rat; with a small c the same shape stays on the fast path.
func overflowConj(c int64) logic.Formula {
	k := func(v int64, t logic.Term) logic.Term { return mul(n(v), t) }
	return logic.And(
		le(add(k(c, x()), k(c-8, y())), n(c+1)),
		le(n(c-2), add(k(c-14, x()), k(c+6, z()))),
		le(add(k(c+30, y()), k(c-2, z())), n(5)),
		le(n(1), add(add(k(c+12, x()), k(c-24, y())), k(c+2, z()))),
	)
}

const overflowCoeff = 3037000507 // just above √MaxInt64

// boxedCells counts the big.Rat cells the solver's frames currently box.
func boxedCells(s *Solver) int {
	n := 0
	for _, fr := range s.ws.frames {
		n += len(fr.bigTab)
	}
	return n
}

// theoryWork is what one uncached check costs; two solvers that visit the
// same bases spend exactly the same.
type theoryWork struct {
	verdict                        Result
	pivots, theoryChecks, satIters int
}

func workOf(s *Solver, f logic.Formula) theoryWork {
	pre := s.Stats
	r := s.check(f) // below the cache: every call solves
	d := s.Stats.Diff(pre)
	return theoryWork{r, d.Pivots, d.TheoryChecks, d.SatIters}
}

// checkWorkspaceSequence answers qs on one used solver, in order and then
// in reverse so that every query runs after two different predecessors,
// and holds each answer to a brand-new solver's: same verdict, same
// number of pivots, theory checks and SAT iterations. Anything a frame,
// the interner or a buffer carries over from an earlier query shows up as
// a different pivot count long before it flips a verdict.
func checkWorkspaceSequence(t *testing.T, used *Solver, qs []logic.Formula) {
	t.Helper()
	cache := NewCache(0) // never consulted: workOf solves below it
	want := make([]theoryWork, len(qs))
	for i, q := range qs {
		want[i] = workOf(NewWithCache(cache), q)
	}
	for i, q := range qs {
		if got := workOf(used, q); got != want[i] {
			t.Fatalf("forwards, query %d: used workspace %+v, new solver %+v\nquery: %s", i, got, want[i], q)
		}
	}
	for i := len(qs) - 1; i >= 0; i-- {
		if got := workOf(used, qs[i]); got != want[i] {
			t.Fatalf("reversed, query %d: used workspace %+v, new solver %+v\nquery: %s", i, got, want[i], qs[i])
		}
	}
}

// TestTheoryWorkspaceMatchesFresh is the reuse differential: one long-lived
// Solver against a new Solver per query over the seeded generators of the
// soundness fuzzer and the context campaign, the seed corpus, and a query
// that promotes cells to big.Rat followed by one of the same shape that does
// not (a stale den == 0 cell would index past the truncated bigTab).
func TestTheoryWorkspaceMatchesFresh(t *testing.T) {
	big, small := New(), New()
	big.check(overflowConj(overflowCoeff))
	small.check(overflowConj(3))
	if boxedCells(big) == 0 || boxedCells(small) != 0 {
		t.Fatalf("overflow pair boxes %d and %d cells; want some and none", boxedCells(big), boxedCells(small))
	}

	n := uint64(512)
	if testing.Short() {
		n = 128
	}
	var qs []logic.Formula
	for seed := uint64(0); seed < n; seed++ {
		qs = append(qs, workspaceSeedQueries(seed)...)
		if seed%64 == 0 {
			qs = append(qs, overflowConj(overflowCoeff), overflowConj(3))
		}
	}
	for _, s := range corpusSeeds(t) {
		qs = append(qs, workspaceSeedQueries(s)...)
	}
	checkWorkspaceSequence(t, New(), qs)
}

// splitConj is a satisfiable conjunction whose branch-and-bound tree grows
// with the number of its disequalities that bite: x and t start at their
// lower bound 0, and every x ≠ k, t ≠ k with k the current value costs one
// more split level. first = 0 makes all eight bite; a large first, none.
// One fractional vertex (2u + 3v = 7) and three argument pairs of f that
// coincide in the model (y, z, w, all 0) add a rational split and six
// Nelson–Oppen probe frames to either tree.
func splitConj(first int64) logic.Formula {
	v := func(name string) logic.Term { return logic.V(name) }
	f := func(t logic.Term) logic.Term { return app("f", t) }
	fs := []logic.Formula{
		le(n(0), v("x")), le(n(0), v("t")), le(n(0), v("y")), le(n(0), v("z")), le(n(0), v("w")),
		eq(add(mul(n(2), v("u")), mul(n(3), v("v"))), n(7)),
		le(n(1), v("u")), le(n(1), v("v")),
		le(add(f(v("y")), f(v("z"))), f(v("w"))),
	}
	for k := first; k < first+4; k++ {
		fs = append(fs, logic.Not(eq(v("x"), n(k))), logic.Not(eq(v("t"), n(k))))
	}
	return logic.And(fs...)
}

// TestCheckTheoryAllocs pins the point of the workspace: after one warm-up
// call a theory check allocates a small per-call constant (congruence
// closure, probe candidates, slack keys) and nothing per branch-and-bound
// node or probe. Two conjunctions of one shape, one with a tree several
// times the other's, must allocate alike.
func TestCheckTheoryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New()
	measure := func(f logic.Formula) (allocs float64, pivots, frames int) {
		w := workOf(s, f) // also the warm-up
		if w.verdict != Sat {
			t.Fatalf("verdict %v, want sat: %s", w.verdict, f)
		}
		return testing.AllocsPerRun(20, func() { s.check(f) }), w.pivots, len(s.ws.frames)
	}
	deepAllocs, deepPivots, deepFrames := measure(splitConj(0))
	flatAllocs, flatPivots, _ := measure(splitConj(1000))
	if deepFrames < 8 || 2*deepPivots < 3*flatPivots {
		t.Fatalf("trees too alike to tell: deep %d pivots over %d frames, flat %d pivots", deepPivots, deepFrames, flatPivots)
	}
	const perCall = 200
	if deepAllocs > perCall || flatAllocs > perCall {
		t.Fatalf("a warm theory check allocates %.0f (deep tree) and %.0f (flat tree) times; want at most %d", deepAllocs, flatAllocs, perCall)
	}
	// The deep tree takes some sixteen more frame copies than the flat one;
	// one allocation per copy is four times this slack.
	if deepAllocs > flatAllocs+4 {
		t.Fatalf("allocations grow with the tree: %.0f for %d pivots against %.0f for %d", deepAllocs, deepPivots, flatAllocs, flatPivots)
	}
}
