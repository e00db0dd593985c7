package oracle

import "testing"

// FuzzConsolidateEquivalence is the end-to-end fuzz target: derive a
// whole batch of Figure 1 programs from the fuzzed seed (mix chosen by
// the second input), consolidate it both serially and in parallel, and
// replay every probe input through the interpreter to hold the system to
// Definition 1 and the §2 cost theorem. Failures print the generating
// seed; `go run ./cmd/oracle -seed <seed> -n 1` shrinks them offline.
func FuzzConsolidateEquivalence(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed, byte(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, mix byte) {
		opts := DefaultGenOptions()
		opts.Mix = Mix(mix % 3)
		b := Generate(seed, opts)
		if fail := CheckConsolidation(b); fail != nil {
			t.Fatal(fail)
		}
		if fail := CheckExecutor(b); fail != nil {
			t.Fatal(fail)
		}
		if fail := CheckPrefilter(b); fail != nil {
			t.Fatal(fail)
		}
		if fail := CheckBatchParity(b); fail != nil {
			t.Fatal(fail)
		}
		if fail := CheckSharded(b, 2); fail != nil {
			t.Fatal(fail)
		}
		if fail := CheckAggregate(GenAggCase(seed)); fail != nil {
			t.Fatal(fail)
		}
	})
}

// FuzzInternerDeterminism fuzzes the hash-consing arena's contracts —
// deterministic NodeIDs, interner-independent hashes, structural equality
// ⟺ ID equality — over random QF_UFLIA formulas derived from the seed.
// The cache, definition-index and merge-node keys all rest on them.
func FuzzInternerDeterminism(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if fail := CheckInterner(seed); fail != nil {
			t.Fatal(fail)
		}
	})
}

// FuzzSMTChecks fuzzes the solver's two seeded properties, CheckSMT and
// CheckSMTContext, from the smt package's seed corpus.
func FuzzSMTChecks(f *testing.F) {
	for _, seed := range smtSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if fail := CheckSMT(seed); fail != nil {
			t.Fatal(fail)
		}
		if fail := CheckSMTContext(seed); fail != nil {
			t.Fatal(fail)
		}
	})
}
