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

// seedGenConfig rotates the generator biases by seed, the same way as the
// oracle's seeded SMT checks.
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

// contextSeedInputs derives the assumption set and goal a context seed
// exercises: 2–4 random hypotheses Ψᵢ plus one goal φ, drawn from a source
// seeded with seed exactly as oracle.CheckSMTContext draws them.
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

// FuzzSMTSoundness fuzzes the one seeded property only this package can
// see: a used theory workspace answers a seed's queries (see
// workspaceSeedQueries) exactly as a new solver does. The solver's verdict
// properties — the brute-force reference, the cache, CheckModel, and the
// incremental contexts — are oracle.CheckSMT and oracle.CheckSMTContext,
// fuzzed by the oracle's FuzzSMTChecks over this corpus.
func FuzzSMTSoundness(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWorkspaceSequence(t, New(), workspaceSeedQueries(seed))
	})
}
