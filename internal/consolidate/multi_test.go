package consolidate

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

// loadCorpus parses every testdata batch into one named program list.
func loadCorpus(t *testing.T) map[string][]*lang.Program {
	t.Helper()
	files, err := filepath.Glob("testdata/*.udf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	out := map[string][]*lang.Program{}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := lang.ParseAll(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out[filepath.Base(file)] = progs
	}
	return out
}

// TestParallelMatchesSerial asserts that parallel divide-and-conquer with
// the shared SMT cache produces byte-identical output to the serial run —
// determinism is load-bearing for the Figure 9/10 reproductions. Run with
// -race this also exercises the cache's lock striping under real
// consolidation traffic.
func TestParallelMatchesSerial(t *testing.T) {
	for name, progs := range loadCorpus(t) {
		name, progs := name, progs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial, sms, err := All(progs, DefaultOptions(), false, false)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			par, pms, err := All(progs, DefaultOptions(), false, true)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if got, want := lang.Format(par), lang.Format(serial); got != want {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
			if pms.Rules != sms.Rules {
				t.Errorf("rule counts differ: serial %+v parallel %+v", sms.Rules, pms.Rules)
			}
			// A reused caller-supplied cache must not change the output
			// either (only make it cheaper): run twice on one cache.
			opts := DefaultOptions()
			opts.Cache = smt.NewCache(0)
			warm1, _, err := All(progs, opts, false, true)
			if err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			warm2, wms, err := All(progs, opts, false, true)
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			if lang.Format(warm1) != lang.Format(serial) || lang.Format(warm2) != lang.Format(serial) {
				t.Error("shared-cache reuse changed the consolidated output")
			}
			if len(progs) > 2 && wms.Solver.Queries > 0 && wms.Solver.CacheHits == 0 {
				t.Errorf("second run on a warm cache had zero hits: %+v", wms.Solver)
			}
		})
	}
}

// TestWarmRunPaysUnknownsOnce: stock Q3's loop invariants leave a score of
// literal-conjunction queries undecided at the default budgets. A second
// run over the same cache must take those Unknowns from the cache like any
// other verdict — no literal-path theory check, no Unknown computed again —
// and trusting them must not make the output depend on the schedule.
func TestWarmRunPaysUnknownsOnce(t *testing.T) {
	progs, err := queries.Gen("stock", "Q3", 4, 20140609)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cache = smt.NewCache(0)
	cold, cms, err := All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if cms.Solver.Unknowns == 0 {
		t.Fatal("the cold run left nothing Unknown; this workload no longer tests the rule")
	}
	warm, wms, err := All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if wms.Context.TheoryChecks != 0 || wms.Solver.Unknowns != 0 {
		t.Errorf("warm run re-solved cached verdicts: %d literal-path theory checks, %d Unknowns (cold run: %d Unknowns)",
			wms.Context.TheoryChecks, wms.Solver.Unknowns, cms.Solver.Unknowns)
	}
	parWarm, _, err := All(progs, opts, true, true)
	if err != nil {
		t.Fatal(err)
	}
	parCold, _, err := All(progs, DefaultOptions(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	want := lang.Format(cold)
	for name, got := range map[string]*lang.Program{"warm serial": warm, "warm parallel": parWarm, "cold parallel": parCold} {
		if lang.Format(got) != want {
			t.Errorf("%s output differs from the cold serial run", name)
		}
	}
}

// TestPrunedChecksAreCachedAndDeterministic covers Infer's
// counterexample pruning — in the loop-entry filter and in Houdini's
// rounds — on the merge-loops program set (weather Q3 × 6, stock Q3 × 4)
// and on the call-heavy merge-calls family (news Mix × 10). The assignment
// that prunes is cached with its verdict, so a second run over the first
// run's cache issues the same queries and takes every literal-path one
// from the cache. Which candidates are pruned is a function of the
// queries alone, so the cold query count is the same serially, on two
// workers, and on every repetition.
func TestPrunedChecksAreCachedAndDeterministic(t *testing.T) {
	for _, part := range []struct {
		domain, family string
		n              int
	}{{"weather", "Q3", 6}, {"stock", "Q3", 4}, {"news", "Mix", 10}} {
		name := part.domain + " " + part.family
		progs, err := queries.Gen(part.domain, part.family, part.n, 20140609)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Cache = smt.NewCache(0)
		cold, cms, err := All(progs, opts, true, false)
		if err != nil {
			t.Fatal(err)
		}
		warm, wms, err := All(progs, opts, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if wms.Context.TheoryChecks != 0 || wms.Solver.Unknowns != 0 {
			t.Errorf("%s: warm run re-solved %d literal-path theory checks (%d Unknowns) that the cold run's cache holds",
				name, wms.Context.TheoryChecks, wms.Solver.Unknowns)
		}
		if wms.SMTQueries != cms.SMTQueries {
			t.Errorf("%s: warm run issued %d queries, the cold run %d: the cached verdicts lost the assignments that pruned",
				name, wms.SMTQueries, cms.SMTQueries)
		}
		if lang.Format(warm) != lang.Format(cold) {
			t.Errorf("%s: warm output differs from cold", name)
		}
		for _, workers := range []int{1, 2, 2} {
			out, ms, err := Build(indexLeaves(progs), DefaultOptions(), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ms.SMTQueries != cms.SMTQueries {
				t.Errorf("%s: cold run on %d workers issued %d queries, the serial cold run %d",
					name, workers, ms.SMTQueries, cms.SMTQueries)
			}
			if lang.Format(out) != lang.Format(cold) {
				t.Errorf("%s: cold output on %d workers differs", name, workers)
			}
		}
	}
}

// TestSharedCacheCrossPairHits asserts the tentpole payoff: with more than
// one pair, the shared cache answers queries that another pair (or an
// earlier level) already solved, and the hit-rate shows up in MultiStats.
func TestSharedCacheCrossPairHits(t *testing.T) {
	corpus := loadCorpus(t)
	progs := corpus["loops_equal.udf"]
	// Four copies of the sum/max loop pair with disjoint notify ids and a
	// level of structurally identical merges: levels 2..n re-issue the
	// first level's invariant queries, which only a shared cache can
	// answer across pair workers.
	var many []*lang.Program
	for c := 0; c < 4; c++ {
		for _, p := range progs {
			q := &lang.Program{Name: p.Name, Params: p.Params, Body: p.Body}
			many = append(many, q)
		}
	}
	opts := DefaultOptions()
	merged, ms, err := All(many, opts, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil || ms.Pairs != len(many)-1 {
		t.Fatalf("expected %d pairs, got %+v", len(many)-1, ms)
	}
	if ms.Solver.Queries == 0 {
		t.Fatal("expected solver queries during loop fusion")
	}
	if ms.Solver.CacheHits == 0 {
		t.Fatalf("no cross-pair cache hits: %+v", ms.Solver)
	}
	if hr := ms.CacheHitRate(); hr <= 0 || hr > 1 {
		t.Fatalf("cache hit-rate %v out of range", hr)
	}
	if ms.Cache.Lookups == 0 || ms.Cache.Stores == 0 {
		t.Fatalf("cache counters not populated: %+v", ms.Cache)
	}
}

// TestCacheCountsRenamedHits pins CacheStats.Renamed on a two-slot program
// set: two stock Q1 UDFs from one template are renamed apart (q0_, q1_),
// so every hit their pair gets is an entailment solved for the other slot
// and answered under the asker's names. The threshold chain's hits repeat
// queries under the names they were solved under, so none is renamed.
func TestCacheCountsRenamedHits(t *testing.T) {
	for _, tc := range []struct {
		name          string
		progs         []*lang.Program
		hits, renamed uint64
	}{
		{"stock_Q1_x2", queries.MustGen("stock", "Q1", 2, 7), 3, 3},
		{"threshold_chain", loadCorpus(t)["threshold_chain.udf"], 4, 0},
	} {
		_, ms, err := All(tc.progs, DefaultOptions(), true, false)
		if err != nil {
			t.Fatal(err)
		}
		if ms.Cache.Hits != tc.hits || ms.Cache.Renamed != tc.renamed {
			t.Errorf("%s: %d hits, %d renamed; want %d and %d", tc.name, ms.Cache.Hits, ms.Cache.Renamed, tc.hits, tc.renamed)
		}
	}
}

// TestAllCancelsSiblingsOnError injects a failing pair and asserts the
// remaining pairs are not consolidated at all: before the fix they kept
// burning solver budget after firstErr was set. The failing pair is the
// first one and fails before any solver use (parameter mismatch), and the
// healthy pairs are loop fusions that provably query the solver — so with
// early cancellation the caller-supplied solver must end the run with
// zero queries.
func TestAllCancelsSiblingsOnError(t *testing.T) {
	corpus := loadCorpus(t)
	loops := corpus["loops_equal.udf"]
	bad1 := lang.MustParse(`func bad1(x) { notify 90 (x > 0); }`)
	bad2 := lang.MustParse(`func bad2(y) { notify 91 (y > 0); }`)
	progs := []*lang.Program{bad1, bad2}
	for c := 0; c < 3; c++ {
		for i, p := range loops {
			q := &lang.Program{Name: p.Name, Params: p.Params, Body: p.Body}
			q.Body = lang.RenameNotifyIDs(q.Body, func(int) int { return 10 + 2*c + i })
			progs = append(progs, q)
		}
	}
	// Sanity: the healthy pairs do query the solver when they run.
	probe := smt.New()
	popts := DefaultOptions()
	popts.Solver = probe
	if _, _, err := All(progs[2:4], popts, false, false); err != nil {
		t.Fatalf("healthy pair failed: %v", err)
	}
	if probe.Stats.Queries == 0 {
		t.Fatal("healthy pair issued no solver queries; test premise broken")
	}

	solver := smt.New()
	opts := DefaultOptions()
	opts.Solver = solver
	_, _, err := All(progs, opts, false, false)
	if err == nil {
		t.Fatal("expected error from mismatched-parameter pair")
	}
	if !strings.Contains(err.Error(), "parameter") {
		t.Fatalf("unexpected error: %v", err)
	}
	if solver.Stats.Queries != 0 {
		t.Errorf("siblings kept burning solver budget after failure: %d queries", solver.Stats.Queries)
	}

	// Parallel mode must surface the same error (cancellation included).
	if _, _, err := All(progs, DefaultOptions(), false, true); err == nil {
		t.Error("parallel run: expected error")
	}
}

// TestInlineBuildTraceIsDeterministic: a caller-supplied solver forces the
// in-line build — depth first, on the caller's goroutine — so the solver
// sees the same query sequence on every run and no pair goroutine is alive
// while it answers.
func TestInlineBuildTraceIsDeterministic(t *testing.T) {
	progs := healthyProgs(6)
	trace := func() []string {
		var log []string
		baseline := runtime.NumGoroutine()
		extra := 0
		solver := smt.New()
		solver.Trace = func(f logic.Formula, r smt.Result, _ bool) {
			log = append(log, f.String()+" => "+r.String())
			if n := runtime.NumGoroutine() - baseline; n > extra {
				extra = n
			}
		}
		opts := DefaultOptions()
		opts.Solver = solver
		if _, _, err := All(progs, opts, false, true); err != nil {
			t.Fatal(err)
		}
		if extra > 0 {
			t.Errorf("%d goroutines beside the caller's while the solver answered", extra)
		}
		return log
	}
	first, second := trace(), trace()
	if len(first) == 0 {
		t.Fatal("the build issued no solver queries; the test premise is broken")
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("query sequences differ between runs: %d vs %d queries", len(first), len(second))
	}
}
