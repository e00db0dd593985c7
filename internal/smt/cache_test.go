package smt

import (
	"reflect"
	"sync"
	"testing"

	"consolidation/internal/logic"
)

// fh interns f into a fresh arena and returns the arena and the node's
// α-key — the cache key exactly as Solver.Check computes it. A fresh
// arena per call doubles as a check that keys are interner-independent.
func fh(f logic.Formula) (*logic.Interner, logic.AlphaKey) {
	in := logic.NewInterner()
	return in, alphaKey(in, in.InternFormula(f))
}

// alphaKey is the node's α-key on a scratch of its own, so the key stays
// valid for as long as the test keeps it.
func alphaKey(in *logic.Interner, id logic.NodeID) logic.AlphaKey {
	return in.AlphaKey(new(logic.AlphaScratch), id)
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(0)
	in, k := fh(eq(x(), n(1)))
	if _, ok := c.get(k, in, 100, 100, false); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.put(k, in, verdict{r: Unsat}, nil, 100, 100) {
		t.Fatal("decided verdict refused")
	}
	if v, ok := c.get(k, in, 100, 100, false); !ok || v.r != Unsat {
		t.Fatalf("Get = %v,%v want Unsat,true", v.r, ok)
	}
	// Decided entries hit regardless of the querying budget.
	if v, ok := c.get(k, in, 1000000, 1000000, false); !ok || v.r != Unsat {
		t.Fatalf("decided entry missed under larger budget: %v,%v", v.r, ok)
	}
	st := c.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheUnknownIsBudgetKeyed(t *testing.T) {
	c := NewCache(0)
	in, k := fh(lt(x(), y()))
	if !c.put(k, in, verdict{r: Unknown}, nil, 10, 10) {
		t.Fatal("budget-tagged Unknown refused")
	}
	// Same or smaller budget cannot do better: hit.
	if v, ok := c.get(k, in, 10, 10, false); !ok || v.r != Unknown {
		t.Fatalf("equal-budget Unknown missed: %v,%v", v.r, ok)
	}
	if v, ok := c.get(k, in, 5, 10, false); !ok || v.r != Unknown {
		t.Fatalf("smaller-budget Unknown missed: %v,%v", v.r, ok)
	}
	// A larger budget must re-solve.
	if _, ok := c.get(k, in, 11, 10, false); ok {
		t.Fatal("stale Unknown served to a larger conflict budget")
	}
	if _, ok := c.get(k, in, 10, 11, false); ok {
		t.Fatal("stale Unknown served to a larger lazy-iter budget")
	}
	// The re-solve decides; the verdict replaces the Unknown.
	if !c.put(k, in, verdict{r: Sat}, nil, 11, 10) {
		t.Fatal("decided verdict refused over Unknown")
	}
	if v, ok := c.get(k, in, 1, 1, false); !ok || v.r != Sat {
		t.Fatalf("decided verdict not served: %v,%v", v.r, ok)
	}
	// And a later, lower-budget Unknown must never shadow it back.
	if c.put(k, in, verdict{r: Unknown}, nil, 1, 1) {
		t.Fatal("Unknown overwrote a decided verdict")
	}
	if v, ok := c.get(k, in, 1, 1, false); !ok || v.r != Sat {
		t.Fatalf("decided verdict lost: %v,%v", v.r, ok)
	}
}

// TestCacheHashCollision forces two distinct formulas through the same
// bucket and checks structural verification keeps their verdicts apart.
func TestCacheHashCollision(t *testing.T) {
	c := NewCache(0)
	in1, f1 := fh(eq(x(), n(1)))
	in2, f2 := fh(eq(y(), n(2)))
	f2.Hash = f1.Hash // deliberately reuse f1's hash for f2
	c.put(f1, in1, verdict{r: Unsat}, nil, 0, 0)
	c.put(f2, in2, verdict{r: Sat}, nil, 0, 0)
	if v, ok := c.get(f1, in1, 0, 0, false); !ok || v.r != Unsat {
		t.Fatalf("f1 under colliding hash: %v,%v want Unsat,true", v.r, ok)
	}
	if v, ok := c.get(f2, in2, 0, 0, false); !ok || v.r != Sat {
		t.Fatalf("f2 under colliding hash: %v,%v want Sat,true", v.r, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("bucket holds %d entries, want 2", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	// maxEntries below the shard count clamps to one entry per shard, so
	// a second distinct key landing on an occupied shard evicts its
	// predecessor (FIFO within the shard).
	c := NewCache(cacheShards)
	in := logic.NewInterner()
	keys := make([]logic.AlphaKey, 0, 4*cacheShards)
	for i := 0; i < 4*cacheShards; i++ {
		k := alphaKey(in, in.InternFormula(eq(x(), n(int64(i)))))
		keys = append(keys, k)
		c.put(k, in, verdict{r: Sat}, nil, 0, 0)
	}
	st := c.Stats()
	if st.Entries > cacheShards {
		t.Fatalf("bound not enforced: %d entries > %d", st.Entries, cacheShards)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Stores != uint64(len(keys)) {
		t.Fatalf("stores %d want %d", st.Stores, len(keys))
	}
	// Evicted or not, a present entry must still be correct.
	hits := 0
	for i, k := range keys {
		if v, ok := c.get(k, in, 0, 0, false); ok {
			hits++
			if v.r != Sat {
				t.Fatalf("entry %d corrupted: %v", i, v.r)
			}
		}
	}
	if hits == 0 || hits > cacheShards {
		t.Fatalf("surviving entries %d, want 1..%d", hits, cacheShards)
	}
}

// TestCacheSharedBetweenSolvers is the tentpole's contract: a verdict one
// solver computes is a cache hit for another solver sharing the cache.
func TestCacheSharedBetweenSolvers(t *testing.T) {
	cache := NewCache(0)
	a := NewWithCache(cache)
	b := NewWithCache(cache)
	f := logic.And(lt(x(), n(3)), lt(n(5), x()))
	if got := a.Check(f); got != Unsat {
		t.Fatalf("solver a: %v", got)
	}
	if got := b.Check(f); got != Unsat {
		t.Fatalf("solver b: %v", got)
	}
	if b.Stats.CacheHits != 1 {
		t.Fatalf("solver b should have hit solver a's entry: %+v", b.Stats)
	}
	if cache.Stats().Hits != 1 || cache.Stats().Stores != 1 {
		t.Fatalf("cache stats %+v", cache.Stats())
	}
}

// TestCacheConcurrentSolvers drives one shared cache from many solvers in
// parallel; run under -race it checks the lock striping, and the verdict
// assertions check that concurrent mixed-budget use never serves a wrong
// or stale answer.
func TestCacheConcurrentSolvers(t *testing.T) {
	cache := NewCache(0)
	formulas := make([]logic.Formula, 0, 40)
	wants := make([]Result, 0, 40)
	for i := int64(0); i < 20; i++ {
		formulas = append(formulas, logic.And(lt(x(), n(i)), lt(n(i), x())))
		wants = append(wants, Unsat)
		formulas = append(formulas, logic.And(le(n(i), x()), le(x(), n(i+1))))
		wants = append(wants, Sat)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s := NewWithCache(cache)
			for rep := 0; rep < 3; rep++ {
				for i := range formulas {
					j := (i + seed) % len(formulas)
					if got := s.Check(formulas[j]); got != wants[j] {
						t.Errorf("worker %d: Check(%v) = %v want %v", seed, formulas[j], got, wants[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cross-solver sharing happened: %+v", st)
	}
}

// TestUnknownDoesNotPoisonCache is the regression for the bug where
// Solver.Check cached Unknown keyed only by formula text: a transiently
// budget-capped query then masked the real verdict for the solver's
// lifetime. The formula is boolean-unsat but needs at least one CDCL
// conflict after a decision, so MaxConflicts=0 forces Unknown while the
// default budget decides Unsat.
func TestUnknownDoesNotPoisonCache(t *testing.T) {
	p := eq(x(), n(1))
	q := eq(y(), n(1))
	f := logic.And(
		logic.Or(p, q),
		logic.Or(p, logic.Not(q)),
		logic.Or(logic.Not(p), q),
		logic.Or(logic.Not(p), logic.Not(q)),
	)
	s := New()
	s.MaxConflicts = 0
	if got := s.Check(f); got != Unknown {
		t.Fatalf("capped check = %v, want Unknown", got)
	}
	if s.Stats.Unknowns != 1 {
		t.Fatalf("Unknowns stat = %d, want 1", s.Stats.Unknowns)
	}
	// Re-checking at the same budget may reuse the Unknown (it is tagged
	// with the budget that produced it) but must still answer Unknown.
	if got := s.Check(f); got != Unknown {
		t.Fatalf("capped re-check = %v, want Unknown", got)
	}

	// Raising the budget must bypass the stale Unknown and decide.
	s.MaxConflicts = 200000
	if got := s.Check(f); got != Unsat {
		t.Fatalf("budget-capped Unknown poisoned the cache: Check = %v, want Unsat", got)
	}

	// The decided verdict replaces the Unknown entry: even a low-budget
	// solver now gets the real answer, from cache.
	s.MaxConflicts = 0
	pre := s.Stats.CacheHits
	if got := s.Check(f); got != Unsat {
		t.Fatalf("decided verdict lost: Check = %v, want Unsat", got)
	}
	if s.Stats.CacheHits != pre+1 {
		t.Fatalf("decided verdict not served from cache: %+v", s.Stats)
	}
}

// TestCacheAssignmentsConcurrent has goroutines store and look up verdicts
// with assignments on one cache, interleaved with stores of the same
// verdicts by checks that did not ask for one. Run under -race it checks
// the entries' new field under the stripe locks. A lookup that wants the
// assignment either misses or returns the key's own; an Unsat never comes
// with one; and a store that did not ask never erases a stored assignment.
func TestCacheAssignmentsConcurrent(t *testing.T) {
	const keys = 32
	c := NewCache(0)
	in := logic.NewInterner()
	ks := make([]logic.AlphaKey, keys)
	for i := range ks {
		ks[i] = alphaKey(in, in.InternFormula(benchFormula(int64(i))))
	}
	result := func(k int) Result {
		if k%4 == 0 {
			return Unsat
		}
		return Sat
	}
	asked := func(k int) verdict {
		v := verdict{r: result(k), asked: true}
		if v.r != Unsat {
			v.m = &logic.Model{Vars: map[string]int64{"x": int64(k)}}
		}
		return v
	}
	// The interner is read-only from here on, so the goroutines share it.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < keys; i++ {
					k := (i + w*5) % keys
					if (rep+w)%3 == 0 {
						c.put(ks[k], in, verdict{r: result(k)}, nil, 0, 0)
					} else {
						c.put(ks[k], in, asked(k), nil, 0, 0)
					}
					v, ok := c.get(ks[k], in, 0, 0, true)
					if !ok {
						continue
					}
					switch {
					case v.r != result(k):
						t.Errorf("key %d: verdict %v, want %v", k, v.r, result(k))
					case v.r == Unsat && v.m != nil:
						t.Errorf("key %d: an Unsat came with an assignment", k)
					case v.r != Unsat && (v.m == nil || v.m.Vars["x"] != int64(k)):
						t.Errorf("key %d: assignment %v, want x = %d", k, v.m, k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		v, ok := c.get(ks[k], in, 0, 0, true)
		if !ok || (v.r != Unsat && v.m == nil) {
			t.Errorf("key %d: after the stores, (%+v, %v); a store that did not ask erased the assignment", k, v, ok)
		}
	}
}

// TestCheckModelIsCachedAndStable: a satisfiable conjunction of literals
// comes with an assignment that satisfies it, the same one from a new
// solver, from the cache, and from a solver sharing the cache; an Unsat
// comes with none; a verdict cached by a check that did not ask is solved
// again for one that does.
func TestCheckModelIsCachedAndStable(t *testing.T) {
	fa := logic.TApp{Func: "f", Args: []logic.Term{x()}}
	sat := logic.And(le(n(2), x()), lt(x(), n(9)), eq(fa, y()), lt(y(), x()))
	unsat := logic.And(lt(x(), n(3)), lt(n(5), x()))

	r, want := New().CheckModel(sat)
	if r != Sat || want == nil {
		t.Fatalf("CheckModel(sat) = (%v, %v), want Sat with an assignment", r, want)
	}
	if v, ok := want.Decide(sat); !ok || !v {
		t.Fatalf("assignment %v %v does not satisfy %s", want.Vars, want.Table, sat)
	}
	cache := NewCache(0)
	a, b := NewWithCache(cache), NewWithCache(cache)
	a.Check(sat) // cached without an assignment
	for _, s := range []*Solver{a, a, b} {
		r, m := s.CheckModel(sat)
		if r != Sat || !reflect.DeepEqual(m, want) {
			t.Fatalf("CheckModel = (%v, %+v), want (sat, %+v)", r, m, want)
		}
	}
	if a.Stats.CacheHits != 1 || b.Stats.CacheHits != 1 {
		t.Errorf("cache hits a=%d b=%d; want the asking re-solve, then hits", a.Stats.CacheHits, b.Stats.CacheHits)
	}
	for _, s := range []*Solver{New(), a} {
		if r, m := s.CheckModel(unsat); r != Unsat || m != nil {
			t.Errorf("CheckModel(unsat) = (%v, %v)", r, m)
		}
	}
}
