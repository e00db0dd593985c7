package smt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"consolidation/internal/logic"
)

// workspaceSeedQueries are the formulas one seed contributes to the
// workspace differential test: oracle.CheckSMT's formula and its negation,
// and oracle.CheckSMTContext's composed validity query with and without its
// last hypothesis.
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
	// Below the query cache, and on an empty one, so that the lazy loop's
	// theory checks are not answered by an earlier query's lemmas either:
	// every call solves.
	s.cache = NewCache(0)
	pre := s.Stats
	r := s.check(f, false).r
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
	want := make([]theoryWork, len(qs))
	for i, q := range qs {
		want[i] = workOf(New(), q)
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
// oracle's SMT and context checks, the seed corpus, and a query
// that promotes cells to big.Rat followed by one of the same shape that does
// not (a stale den == 0 cell would index past the truncated bigTab).
func TestTheoryWorkspaceMatchesFresh(t *testing.T) {
	big, small := New(), New()
	big.check(overflowConj(overflowCoeff), false)
	small.check(overflowConj(3), false)
	if boxedCells(big) == 0 || boxedCells(small) != 0 {
		t.Fatalf("overflow pair boxes %d and %d cells; want some and none", boxedCells(big), boxedCells(small))
	}

	checkWorkspaceSequence(t, New(), workspaceQueries(t))
}

// workspaceQueries is the query stream of the workspace differential tests:
// the seeded generators' queries, an overflow pair every 64 seeds, and the
// seed corpus's queries.
func workspaceQueries(t *testing.T) []logic.Formula {
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
	return qs
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
		return testing.AllocsPerRun(20, func() { s.check(f, false) }), w.pivots, len(s.ws.frames)
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

// refProbeRound is the Nelson–Oppen probe loop as it was before witnesses,
// kept in test code only as the reference probeRound is held to: every
// candidate pair whose sides coincide in the model is probed on both
// halves. over records that one of its probe checks ran out of pivots.
func refProbeRound(over *bool) func(ws *theoryWorkspace, cc *congruence, probeBudget *int) (progress, exhausted bool) {
	return func(ws *theoryWorkspace, cc *congruence, probeBudget *int) (progress, exhausted bool) {
		sx := ws.frames[0]
		for _, pair := range ws.candPairs {
			a, b := pair.a, pair.b
			if cc.find(a) == cc.find(b) {
				continue
			}
			if qCmp(sx.val(a), sx.val(b)) != 0 {
				continue
			}
			if *probeBudget <= 0 {
				exhausted = true
				break
			}
			*probeBudget--
			ws.probes++
			// a = b is implied when neither a - b ≤ -1 nor a - b ≥ 1 is
			// feasible on top of the model's tableau.
			diff := []sterm{{x: a, c: qOne}, {x: b, c: qInt(-1)}}
			lo := ws.child(0)
			okLo := lo.assertUpper(lo.addSlack(diff), qInt(-1))
			if okLo {
				var o bool
				okLo, o = lo.check()
				*over = *over || o
			}
			hi := ws.child(0)
			okHi := hi.assertLower(hi.addSlack(diff), qInt(1))
			if okHi {
				var o bool
				okHi, o = hi.check()
				*over = *over || o
			}
			if !okLo && !okHi {
				cc.assertEq(a, b)
				if cc.conflict {
					return true, false
				}
				progress = true
			}
		}
		return progress, exhausted
	}
}

// probeConfigs are the budgets the witness differential runs under: the
// default, a probe budget that runs out, and a pivot budget that probes
// run out of.
var probeConfigs = []theoryConfig{
	defaultTheoryConfig(),
	{maxPivots: 2500, branchDepth: 10, noEqRounds: 4, noEqProbes: 2},
	{maxPivots: 12, branchDepth: 10, noEqRounds: 4, noEqProbes: 64},
}

// probeWork is what one uncached check does and ends on.
type probeWork struct {
	verdict                        Result
	model                          string
	theoryChecks, satIters, probes int
	pivots, answered               int
}

func probeWorkOf(s *Solver, f logic.Formula) probeWork {
	pre := s.Stats
	r := s.check(f, false).r // below the cache: every call solves
	d := s.Stats.Diff(pre)
	w := probeWork{
		verdict:      r,
		theoryChecks: d.TheoryChecks, satIters: d.SatIters, probes: d.Probes,
		pivots: d.Pivots, answered: d.ProbesAnswered,
	}
	if s.ws != nil {
		w.model = fmt.Sprint(s.ws.assignment())
	}
	return w
}

// checkWitnessesFeasible holds every witness of the last round to the
// point of the rule: it must lie in the polyhedron of the frame it was
// probed from. Each witness's structural values are fixed by bounds on a
// copy of that frame, which must then check feasible.
func checkWitnessesFeasible(t *testing.T, ws *theoryWorkspace, q logic.Formula) {
	t.Helper()
	if ws == nil || !ws.ended {
		return // the round did not end on the probes of frames[0]
	}
	n := ws.frames[0].structural
	for w := 0; w < len(ws.witnesses); w += n {
		c := new(simplex)
		c.copyFrom(ws.frames[0])
		var pivots int
		c.pivots, c.pivotLimit = &pivots, 1<<30
		ok := true
		for x, v := range ws.witnesses[w : w+n] {
			ok = ok && c.assertLower(x, v) && c.assertUpper(x, v)
		}
		if ok {
			ok, _ = c.check()
		}
		if !ok {
			t.Fatalf("witness %d lies outside the polyhedron of frames[0]\nquery: %s", w/n, q)
		}
	}
}

// checkWitnessProbes runs qs on a solver probing through refProbeRound and
// on one probing through probeRound, under each of cfgs. Wherever no
// reference probe ran out of pivots, the two must end alike: the same
// verdict, assignment, theory checks, SAT iterations and charged probes,
// with no more pivots for the witnesses. It returns how many checks it
// compared and how many probes the witnesses or a first half answered.
func checkWitnessProbes(t *testing.T, qs []logic.Formula, cfgs []theoryConfig) (compared, answered int) {
	t.Helper()
	for _, cfg := range cfgs {
		ref, got := New(), New()
		ref.Theory, got.Theory = cfg, cfg
		var over bool
		ref.ws = newTheoryWorkspace()
		ref.ws.probeRef = refProbeRound(&over)
		for i, q := range qs {
			over = false
			want := probeWorkOf(ref, q)
			have := probeWorkOf(got, q)
			checkWitnessesFeasible(t, got.ws, q)
			answered += have.answered
			if over {
				continue
			}
			compared++
			if have.pivots > want.pivots || have.answered > have.probes {
				t.Fatalf("config %+v, query %d: witnesses took %d pivots against %d (%d of %d probes answered)\nquery: %s",
					cfg, i, have.pivots, want.pivots, have.answered, have.probes, q)
			}
			have.pivots, have.answered = want.pivots, want.answered
			if have != want {
				t.Fatalf("config %+v, query %d: witnesses %+v, all probes %+v\nquery: %s", cfg, i, have, want, q)
			}
		}
	}
	return compared, answered
}

// halfApartConj forces a = b over the integers only: 2a − 2b = d − c with
// |c − d| ≤ 1 makes c − d even, so 0, while a rational point may put c − d
// at −1 and a − b at ½. The probe of (c, d), which comes first, leaves such
// a point as a witness; the equality a = b must still be propagated, and
// g(a) ≠ g(b) makes the conjunction unsat. (2·a and b·2 keep a and b at
// different argument positions, so that only g pairs them.)
func halfApartConj() logic.Formula {
	a, b, c, d := logic.V("a"), logic.V("b"), logic.V("c"), logic.V("d")
	return logic.And(
		eq(sub(mul(n(2), a), mul(b, n(2))), sub(d, c)),
		le(sub(c, d), n(1)), le(sub(d, c), n(1)),
		logic.Not(eq(app("g", a), app("g", b))),
	)
}

// roundTwoConj needs two rounds: the first propagates a = b (a ≤ b ≤ a)
// and probes (p, q) to a point with p − q = −1; congruence then gives
// f(a) = f(b), so the second round's p − q = f(a) − f(b) forces p = q,
// which must be propagated for h(p) ≠ h(q) to make the conjunction unsat.
// A witness kept from the first round would settle (p, q) wrongly.
func roundTwoConj() logic.Formula {
	a, b, p, q := logic.V("a"), logic.V("b"), logic.V("p"), logic.V("q")
	return logic.And(
		le(a, b), le(b, a),
		eq(sub(p, q), sub(app("f", a), app("f", b))),
		logic.Not(eq(app("h", p), app("h", q))),
	)
}

// TestWitnessProbesMatchAllProbes is the differential of the witness rule
// against the unpruned probe loop: the hand-built conjunctions above, which
// must come out unsat, and the workspace differential's query stream, whole
// under the default budgets and its first quarter under the small ones.
func TestWitnessProbesMatchAllProbes(t *testing.T) {
	hand := []logic.Formula{halfApartConj(), roundTwoConj()}
	for _, f := range hand {
		if r := New().Check(f); r != Unsat {
			t.Fatalf("got %v, want unsat: %s", r, f)
		}
	}
	s := New()
	s.check(halfApartConj(), false)
	if !witnessHalfApart(s.ws, "a", "b") {
		t.Fatalf("no witness put a and b ½ apart: the conjunction no longer tests the threshold")
	}
	qs := append(hand, workspaceQueries(t)...)
	small := qs[:len(qs)/4]
	compared, answered := checkWitnessProbes(t, qs, probeConfigs[:1])
	c, a := checkWitnessProbes(t, small, probeConfigs[1:])
	compared, answered = compared+c, answered+a
	if want := len(qs) + len(small); compared < want*3/4 || answered == 0 {
		t.Fatalf("compared %d of %d checks, %d probes answered: too few to tell", compared, want, answered)
	}
}

// witnessHalfApart reports whether a witness of the workspace's last round
// puts the variables named x and y exactly ½ apart.
func witnessHalfApart(ws *theoryWorkspace, x, y string) bool {
	a, okA := ws.in.byVar[x]
	b, okB := ws.in.byVar[y]
	if !okA || !okB {
		return false
	}
	n := ws.frames[0].structural
	for w := 0; w < len(ws.witnesses); w += n {
		d := qSub(ws.witnesses[w+a], ws.witnesses[w+b])
		if qCmp(d, qnorm(1, 2)) == 0 || qCmp(d, qnorm(-1, 2)) == 0 {
			return true
		}
	}
	return false
}

// FuzzWitnessProbesMatchAllProbes is the differential over the queries
// one fuzzed seed generates.
func FuzzWitnessProbesMatchAllProbes(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWitnessProbes(t, workspaceSeedQueries(seed), probeConfigs)
	})
}

// refCandidatePairs is the map-bucketed candidate pair construction the
// workspace's slices replaced, kept in test code only as the reference
// for their order: buckets by sorted "fn#pos" key, each bucket's distinct
// nodes in order of first occurrence, each pair where it first occurs.
func refCandidatePairs(in *interner) []nodePair {
	argBuckets := map[string][]int{}
	for id := 0; id < len(in.nodes); id++ {
		nd := in.nodes[id]
		if nd.fn == "" {
			continue
		}
		for pos, ch := range nd.children {
			key := nd.fn + "#" + strconv.Itoa(pos)
			argBuckets[key] = append(argBuckets[key], ch)
		}
	}
	bucketKeys := make([]string, 0, len(argBuckets))
	for k := range argBuckets {
		bucketKeys = append(bucketKeys, k)
	}
	sort.Strings(bucketKeys)
	var candPairs []nodePair
	seenPair := map[nodePair]bool{}
	for _, k := range bucketKeys {
		bucket := argBuckets[k]
		seen := map[int]bool{}
		var uniq []int
		for _, id := range bucket {
			if !seen[id] {
				seen[id] = true
				uniq = append(uniq, id)
			}
		}
		for i := 0; i < len(uniq); i++ {
			for j := i + 1; j < len(uniq); j++ {
				a, b := uniq[i], uniq[j]
				if b < a {
					a, b = b, a
				}
				p := nodePair{a, b}
				if !seenPair[p] {
					seenPair[p] = true
					candPairs = append(candPairs, p)
				}
			}
		}
	}
	return candPairs
}

// elevenArgs is f(x0, …, x10) = f(y0, …, y10): its buckets f#10 and f#2
// sort by bytes, not by position.
func elevenArgs() logic.Formula {
	var xs, ys []logic.Term
	for i := 0; i < 11; i++ {
		xs = append(xs, logic.V(fmt.Sprintf("x%d", i)))
		ys = append(ys, logic.V(fmt.Sprintf("y%d", i)))
	}
	return eq(app("f", xs...), app("f", ys...))
}

// TestCandidatePairsOrder holds the candidate pairs, whose order decides
// where the probe budget runs out, to the map-bucketed reference on the
// first quarter of the workspace differential's stream and on elevenArgs,
// whose pairs must come in the byte order of their keys (f#1 < f#10 < f#2).
func TestCandidatePairsOrder(t *testing.T) {
	qs := workspaceQueries(t)
	s := New()
	for i, q := range append([]logic.Formula{elevenArgs()}, qs[:len(qs)/4]...) {
		s.check(q, false)
		if s.ws == nil {
			continue
		}
		s.ws.candidatePairs() // of the last check's interned nodes
		want := refCandidatePairs(s.ws.in)
		if !slices.Equal(s.ws.candPairs, want) {
			t.Fatalf("query %d: candidate pairs %v, reference %v\nquery: %s", i, s.ws.candPairs, want, q)
		}
		if i == 0 {
			in := s.ws.in
			name := func(id int) string { return in.nodes[id].varName }
			var got []string
			for _, p := range want {
				got = append(got, name(p.a)+"~"+name(p.b))
			}
			if g := strings.Join(got[:4], " "); g != "x0~y0 x1~y1 x10~y10 x2~y2" {
				t.Fatalf("elevenArgs pairs begin %s, want x0~y0 x1~y1 x10~y10 x2~y2", g)
			}
		}
	}
}
