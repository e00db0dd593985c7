package smt

import (
	"math/rand"
	"reflect"
	"testing"

	"consolidation/internal/logic"
)

// renameVars renames f's variables by m, keeping its structure exactly.
func renameVars(f logic.Formula, m map[string]string) logic.Formula {
	var term func(logic.Term) logic.Term
	term = func(t logic.Term) logic.Term {
		switch x := t.(type) {
		case logic.TVar:
			return logic.TVar{Name: m[x.Name]}
		case logic.TApp:
			args := make([]logic.Term, len(x.Args))
			for i, a := range x.Args {
				args[i] = term(a)
			}
			return logic.TApp{Func: x.Func, Args: args}
		case logic.TBin:
			return logic.TBin{Op: x.Op, L: term(x.L), R: term(x.R)}
		}
		return t
	}
	switch x := f.(type) {
	case logic.FAtom:
		return logic.FAtom{Pred: x.Pred, L: term(x.L), R: term(x.R)}
	case logic.FNot:
		return logic.FNot{F: renameVars(x.F, m)}
	case logic.FAnd:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = renameVars(g, m)
		}
		return logic.FAnd{Fs: fs}
	case logic.FOr:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = renameVars(g, m)
		}
		return logic.FOr{Fs: fs}
	}
	return f
}

// alphaRenaming draws a bijective renaming of vars: a permutation of the
// names themselves, with about half of them then moved to fresh names.
func alphaRenaming(rng *rand.Rand, vars []string) map[string]string {
	to := append([]string(nil), vars...)
	rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
	m := map[string]string{}
	for i, v := range vars {
		m[v] = to[i]
		if rng.Intn(2) == 0 {
			m[v] = "q7_" + to[i]
		}
	}
	return m
}

// renamedModel is m with its variables renamed by r.
func renamedModel(m *logic.Model, r map[string]string) *logic.Model {
	if m == nil {
		return nil
	}
	out := &logic.Model{Vars: map[string]int64{}, Table: m.Table}
	for v, val := range m.Vars {
		out.Vars[r[v]] = val
	}
	return out
}

// checkAlphaTwin holds a query and its renamed twin to each other: on
// fresh solvers the same verdict, the same Stats delta and the assignment
// equal modulo the renaming; on the query's cache, the twin is a hit that
// returns that renamed assignment, which decides the twin as the
// original's decides the query. It reports the verdict.
func checkAlphaTwin(t *testing.T, label string, q, twin logic.Formula, r map[string]string, budget func(*Solver)) Result {
	t.Helper()
	solve := func(s *Solver, f logic.Formula) (Result, *logic.Model, Stats) {
		budget(s)
		pre := s.Stats
		res, m := s.CheckModel(f)
		return res, m, s.Stats.Diff(pre)
	}
	cache := NewCache(0)
	r1, m1, d1 := solve(NewWithCache(cache), q)
	r2, m2, d2 := solve(New(), twin)
	if r1 != r2 || d1 != d2 {
		t.Fatalf("%s: query %v %+v, twin %v %+v\nquery: %s\ntwin:  %s", label, r1, d1, r2, d2, q, twin)
	}
	if want := renamedModel(m1, r); !reflect.DeepEqual(m2, want) {
		t.Fatalf("%s: twin's assignment %+v, want the query's renamed %+v\nquery: %s", label, m2, want, q)
	}

	r3, m3, d3 := solve(NewWithCache(cache), twin)
	if r3 != r1 || d3.CacheHits != 1 {
		t.Fatalf("%s: twin on the shared cache: %v with %d hits, want %v from the cache", label, r3, d3.CacheHits, r1)
	}
	if want := renamedModel(m1, r); !reflect.DeepEqual(m3, want) {
		t.Fatalf("%s: cached twin's assignment %+v, want %+v", label, m3, want)
	}
	if m1 != nil {
		v1, ok1 := m1.Decide(q)
		v3, ok3 := m3.Decide(twin)
		if v1 != v3 || ok1 != ok3 {
			t.Fatalf("%s: the assignment decides the query (%v, %v) but the twin (%v, %v)", label, v1, ok1, v3, ok3)
		}
	}
	return r1
}

// TestAlphaRenamedQueriesShareVerdicts is the α-key's differential: the
// workspace stream's queries (the seeded generators and the seed corpus)
// against a seeded renaming that mixes fresh names with a permutation of
// their own, at the default budgets and at budgets small enough that the
// boolean path gives up, so budget-keyed Unknowns are shared too.
func TestAlphaRenamedQueriesShareVerdicts(t *testing.T) {
	qs := workspaceQueries(t)
	rng := rand.New(rand.NewSource(39))
	// Each budget takes every fourth query, from its own offset, which
	// keeps the test to a few seconds.
	budgets := []struct {
		name   string
		offset int
		set    func(*Solver)
		unknow bool
	}{
		{"default", 0, func(*Solver) {}, false},
		{"small", 2, func(s *Solver) { s.MaxConflicts, s.MaxLazyIters = 2, 2 }, true},
	}
	for _, bud := range budgets {
		unknowns, sats := 0, 0
		for i := bud.offset; i < len(qs); i += 4 {
			q := qs[i]
			r := alphaRenaming(rng, logic.Vars(q))
			switch checkAlphaTwin(t, bud.name, q, renameVars(q, r), r, bud.set) {
			case Unknown:
				unknowns++
			case Sat:
				sats++
			}
		}
		if sats == 0 || (bud.unknow && unknowns == 0) {
			t.Fatalf("%s budgets: %d Sat and %d Unknown verdicts; the stream no longer covers both", bud.name, sats, unknowns)
		}
	}
}

// TestContextSharesRenamedVerdicts: a Context's query reaches the shared
// cache by its α-key, so a second worker asking the renamed entailment on
// its own Context hits the entry the first one published and gets the
// assignment in its own names.
func TestContextSharesRenamedVerdicts(t *testing.T) {
	hits := 0
	for seed := uint64(0); seed < 64; seed++ {
		hyps, goal := contextSeedInputs(seed)
		r := alphaRenaming(rand.New(rand.NewSource(int64(seed))), logic.Vars(composeQuery(hyps, goal)))
		twinHyps := make([]logic.Formula, len(hyps))
		for i, h := range hyps {
			twinHyps[i] = renameVars(h, r)
		}
		cache := NewCache(0)
		ask := func(hyps []logic.Formula, goal logic.Formula) (Result, *logic.Model, Stats) {
			s := NewWithCache(cache)
			c := NewSolvingContext()
			c.BeginRun(s)
			aids := make([]int, len(hyps))
			for i, h := range hyps {
				aids[i] = c.Assert(h)
			}
			res, m := c.CheckAssumingModel(aids, goal, func() []int { return aids })
			return res, m, s.Stats
		}
		r1, m1, st1 := ask(hyps, goal)
		r2, m2, st := ask(twinHyps, renameVars(goal, r))
		if r1 != r2 {
			t.Fatalf("seed %d: verdict %v, renamed %v", seed, r1, r2)
		}
		// Only the literal path publishes what a Context decides.
		if st1.SatIters == 0 && st.CacheHits != 1 {
			t.Fatalf("seed %d: renamed entailment missed the shared cache (%+v)", seed, st)
		}
		hits += st.CacheHits
		if want := renamedModel(m1, r); !reflect.DeepEqual(m2, want) {
			t.Fatalf("seed %d: assignment %+v, want %+v", seed, m2, want)
		}
	}
	if hits == 0 {
		t.Fatal("no renamed entailment hit")
	}
}
