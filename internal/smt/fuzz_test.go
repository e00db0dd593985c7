package smt

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"consolidation/internal/logic"
)

// corpusSeeds loads the checked-in seed corpus: decimal seeds, one per
// line, from every .txt file under testdata/corpus.
func corpusSeeds(tb testing.TB) []uint64 {
	files, err := filepath.Glob("testdata/corpus/*.txt")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no SMT seed corpus under testdata/corpus: %v", err)
	}
	var out []uint64
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseUint(line, 10, 64)
			if err != nil {
				tb.Fatalf("%s: bad seed %q: %v", f, line, err)
			}
			out = append(out, v)
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// seedGenConfig rotates the generator biases by seed, the same way for
// every seeded property in this package.
func seedGenConfig(seed uint64) FormulaGenConfig {
	cfg := DefaultFormulaGenConfig()
	switch seed % 3 {
	case 1:
		cfg.UFBias = true
	case 2:
		cfg.LIABias = true
	}
	return cfg
}

// checkSoundnessSeed is the body shared by the fuzz target and the
// deterministic corpus test: generate a formula from the seed, then
// assert every soundness property the rest of the system relies on.
func checkSoundnessSeed(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := seedGenConfig(seed)
	f := RandomFormula(rng, cfg)

	full := New()
	got := full.Check(f)

	// Soundness against the brute-force reference: a verified model
	// refutes Unsat, a verified countermodel of f refutes... nothing —
	// RefSearch is one-sided, so only the Unsat direction is checked.
	if m, ok := RefSearch(f, DefaultRefConfig()); ok && got == Unsat {
		t.Fatalf("solver says unsat but a model exists\nformula: %s\nmodel vars: %v", f, m.Vars)
	}
	// Negation consistency: f and ¬f cannot both be unsatisfiable.
	if got == Unsat && full.Check(logic.Not(f)) == Unsat {
		t.Fatalf("both f and ¬f reported unsat\nformula: %s", f)
	}
	// Verdict stability: re-checking (now cache-served) must agree.
	if again := full.Check(f); again != got {
		t.Fatalf("verdict changed on re-check: %v then %v\nformula: %s", got, again, f)
	}
	// Cross-budget cache sharing (the PR 1 poisoning bug): a budget-capped
	// solver writing Unknown into a shared cache must not shadow a
	// full-budget solver's later decidable verdict.
	cache := NewCache(0)
	tiny := NewWithCache(cache)
	tiny.MaxConflicts, tiny.MaxLazyIters = 1, 1
	tinyGot := tiny.Check(f)
	if tinyGot != Unknown && tinyGot != got {
		t.Fatalf("budget-capped solver decided differently: %v vs %v\nformula: %s", tinyGot, got, f)
	}
	shared := NewWithCache(cache)
	if sharedGot := shared.Check(f); sharedGot != got {
		t.Fatalf("shared-cache verdict %v differs from fresh verdict %v (cache poisoning)\nformula: %s", sharedGot, got, f)
	}
}

// FuzzSMTSoundness drives the solver with random QF_UFLIA formulas and
// cross-checks every verdict against the brute-force reference model
// search, the cache-consistency invariants, the incremental-context
// agreement property, and the used-workspace-equals-new-solver property.
func FuzzSMTSoundness(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSoundnessSeed(t, seed)
		checkContextSeed(t, seed)
		checkWorkspaceSequence(t, New(), workspaceSeedQueries(seed))
	})
}

// TestSMTSoundnessCorpus replays the seed corpus deterministically under
// plain `go test`.
func TestSMTSoundnessCorpus(t *testing.T) {
	for _, s := range corpusSeeds(t) {
		checkSoundnessSeed(t, s)
	}
}
