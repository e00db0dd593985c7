package consolidate

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/smt"
)

// healthyProgs builds n small consolidatable programs exercising loops
// and conditionals, with disjoint notification ids.
func healthyProgs(n int) []*lang.Program {
	progs := make([]*lang.Program, 0, n)
	for i := 0; i < n; i++ {
		progs = append(progs, lang.MustParse(fmt.Sprintf(
			`func ok%d(a, b) {
				s := 0;
				i := 0;
				while (i < 3) { s := (s + a); i := (i + 1); }
				if ((a + b) > %d) { s := (s + b); } else { s := (s - 1); }
				notify %d ((s + b) > %d);
			}`, i, i, 10+i, i)))
	}
	return progs
}

// badPairProgs is a batch whose first pair fails Pair validation
// (parameter mismatch), cancelling the sibling pair workers mid-tree.
func badPairProgs() []*lang.Program {
	bad1 := lang.MustParse(`func bad1(x) { notify 90 (x > 0); }`)
	bad2 := lang.MustParse(`func bad2(y) { notify 91 (y > 0); }`)
	return append([]*lang.Program{bad1, bad2}, healthyProgs(6)...)
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline or the deadline passes.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after %s: %d at baseline, %d now", what, baseline, now)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledPairsLeaveSharedCacheIntact cancels parallel runs mid-tree
// (each pair worker owns a private solving context layered over the
// shared cache), asserts every worker goroutine is joined, and then
// consolidates the healthy programs over the same battle-scarred cache —
// the output must be byte-identical to a run over a fresh cache: a
// context abandoned mid-pair must not have published partial or
// schedule-dependent verdicts.
func TestCancelledPairsLeaveSharedCacheIntact(t *testing.T) {
	cache := smt.NewCache(0)
	opts := DefaultOptions()
	opts.Cache = cache

	baseline := runtime.NumGoroutine()
	for rep := 0; rep < 5; rep++ {
		if _, _, err := All(badPairProgs(), opts, false, true); err == nil {
			t.Fatal("expected parameter-mismatch error from the bad pair")
		}
	}
	waitGoroutines(t, baseline, "5 aborted runs")

	healthy := healthyProgs(6)
	scarred, _, err := All(healthy, opts, false, true)
	if err != nil {
		t.Fatalf("consolidation over the scarred cache: %v", err)
	}
	fresh, _, err := All(healthy, DefaultOptions(), false, true)
	if err != nil {
		t.Fatalf("consolidation over a fresh cache: %v", err)
	}
	if got, want := lang.Format(scarred), lang.Format(fresh); got != want {
		t.Fatalf("aborted runs poisoned the shared cache:\n--- scarred ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestCallerContextSurvivesCancelledRun drives the builder with a Memo
// through an aborted run, then reuses the same memo for a healthy batch
// under fresh ids: whatever the aborted run left in the memo (prepared
// leaves, merge nodes) must leave the output byte-identical to a cold
// build without a memo.
func TestCallerContextSurvivesCancelledRun(t *testing.T) {
	memo := NewMemo()
	opts := DefaultOptions()

	baseline := runtime.NumGoroutine()
	if _, _, err := Build(indexLeaves(badPairProgs()), opts, 2, memo); err == nil {
		t.Fatal("expected parameter-mismatch error from the bad pair")
	}
	waitGoroutines(t, baseline, "an aborted memo run")
	if len(memo.prep) == 0 && len(memo.nodes) == 0 {
		t.Fatal("the aborted run left nothing in the memo; the test premise is broken")
	}

	var healthy []Leaf
	for i, p := range healthyProgs(6) {
		healthy = append(healthy, Leaf{ID: 100 + i, Prog: p})
	}
	warm, _, err := Build(healthy, opts, 2, memo)
	if err != nil {
		t.Fatalf("consolidation over the aborted run's memo: %v", err)
	}
	cold, _, err := Build(healthy, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatalf("cold consolidation: %v", err)
	}
	if got, want := lang.Format(warm), lang.Format(cold); got != want {
		t.Fatalf("memo reuse after an aborted run diverged:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
}

// TestConcurrentCancelledRunsSharedCache hammers one shared cache from
// concurrent parallel runs, half of which cancel mid-tree; run under
// -race this checks the context/cache layering for data races, and every
// healthy run must agree byte-for-byte with a serial reference.
func TestConcurrentCancelledRunsSharedCache(t *testing.T) {
	healthy := healthyProgs(6)
	ref, _, err := All(healthy, DefaultOptions(), false, false)
	if err != nil {
		t.Fatal(err)
	}
	refText := lang.Format(ref)

	cache := smt.NewCache(0)
	opts := DefaultOptions()
	opts.Cache = cache
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if _, _, err := All(badPairProgs(), opts, false, true); err == nil {
					errs <- fmt.Errorf("run %d: expected parameter-mismatch error", g)
				}
				return
			}
			out, _, err := All(healthy, opts, false, true)
			if err != nil {
				errs <- fmt.Errorf("run %d: %v", g, err)
				return
			}
			if got := lang.Format(out); got != refText {
				errs <- fmt.Errorf("run %d diverged from the serial reference", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
