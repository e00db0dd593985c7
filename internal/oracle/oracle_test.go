package oracle

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/logic"
)

// corpusSeeds loads a checked-in seed corpus: decimal seeds, one per line,
// from every .txt file under dir. A seed past MaxInt64 is read as the int64
// with the same bits, which rand.NewSource draws from alike.
func corpusSeeds(tb testing.TB, dir string) []int64 {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no seed corpus under %s: %v", dir, err)
	}
	var out []int64
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
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				u, uerr := strconv.ParseUint(line, 10, 64)
				v, err = int64(u), uerr
			}
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

// batchSeeds is the corpus of the batch and interner checks; smtSeeds is the
// solver's own corpus, shared with the smt package's fuzz targets.
func batchSeeds(tb testing.TB) []int64 { return corpusSeeds(tb, "testdata/corpus") }
func smtSeeds(tb testing.TB) []int64   { return corpusSeeds(tb, "../smt/testdata/corpus") }

func TestGenerateDeterministic(t *testing.T) {
	opts := DefaultGenOptions()
	a := Generate(7, opts)
	b := Generate(7, opts)
	if len(a.Progs) != len(b.Progs) || len(a.Inputs) != len(b.Inputs) {
		t.Fatalf("same seed, different shapes: %d/%d progs, %d/%d inputs",
			len(a.Progs), len(b.Progs), len(a.Inputs), len(b.Inputs))
	}
	for i := range a.Progs {
		if lang.Format(a.Progs[i]) != lang.Format(b.Progs[i]) {
			t.Fatalf("same seed, different program %d", i)
		}
	}
	for i := range a.Inputs {
		for j := range a.Inputs[i] {
			if a.Inputs[i][j] != b.Inputs[i][j] {
				t.Fatalf("same seed, different input %d", i)
			}
		}
	}
}

// TestGeneratedProgramsWellFormed asserts the generator's safety
// contract on a seed sweep: programs pretty-print and re-parse, run to
// completion on every probe input (bounded loops, no unbound reads,
// at-most-one notification), statically notify only id 1, and never
// assign their parameters — the invariants the registry and the
// renumbering drivers rely on.
func TestGeneratedProgramsWellFormed(t *testing.T) {
	lib := Lib()
	for seed := int64(1); seed <= 60; seed++ {
		opts := DefaultGenOptions()
		opts.Mix = Mix(seed % 3)
		b := Generate(seed, opts)
		for _, p := range b.Progs {
			text := lang.Format(p)
			q, err := lang.Parse(text)
			if err != nil {
				t.Fatalf("seed %d: %s does not re-parse: %v\n%s", seed, p.Name, err, text)
			}
			if !lang.EqualStmt(p.Body, q.Body) {
				t.Fatalf("seed %d: %s round-trip changed the AST", seed, p.Name)
			}
			ids := lang.NotifyIDs(p.Body)
			if len(ids) != 1 || !ids[1] {
				t.Fatalf("seed %d: %s notifies ids %v, want exactly {1}", seed, p.Name, ids)
			}
			assigned := lang.AssignedVars(p.Body)
			for _, prm := range p.Params {
				if assigned[prm] {
					t.Fatalf("seed %d: %s assigns parameter %s", seed, p.Name, prm)
				}
			}
			for _, in := range b.Inputs {
				if _, err := run(lib, p, in); err != nil {
					t.Fatalf("seed %d: %s on %v: %v\n%s", seed, p.Name, in, err, text)
				}
			}
		}
	}
}

// TestOracleCorpus runs the churn checks, which no fuzz target drives, on
// the batch corpus: registry churn on every fourth seed, sharded churn on
// the seeds two apart. FuzzConsolidateEquivalence's and
// FuzzInternerDeterminism's seed corpora run the other batch checks on the
// same seeds, FuzzSMTChecks the solver checks.
func TestOracleCorpus(t *testing.T) {
	seeds := batchSeeds(t)
	if testing.Short() {
		seeds = seeds[:len(seeds)/2]
	}
	for i, seed := range seeds {
		opts := registryGenOptions(DefaultGenOptions())
		opts.Mix = Mix(seed % 3)
		switch i % 4 {
		case 0:
			if f := CheckRegistry(Generate(seed, opts), 5); f != nil {
				t.Fatal(f)
			}
		case 2:
			if f := CheckSharded(Generate(seed, opts), 4); f != nil {
				t.Fatal(f)
			}
		}
	}
}

// TestContextAgreementCampaign is the seeded context campaign: CheckSMTContext
// on seeds 0–511 (0–127 under -short). The seeds in FuzzSMTChecks's corpus
// are skipped; its seed corpus runs them.
func TestContextAgreementCampaign(t *testing.T) {
	n := int64(512)
	if testing.Short() {
		n = 128
	}
	fuzzed := map[int64]bool{}
	for _, s := range smtSeeds(t) {
		fuzzed[s] = true
	}
	for seed := int64(0); seed < n; seed++ {
		if fuzzed[seed] {
			continue
		}
		if f := CheckSMTContext(seed); f != nil {
			t.Fatal(f)
		}
	}
}

// TestChecksTable holds the campaign table to what cmd/oracle and Shrink
// assume of it: unique names, a positive stride, and a row to re-run for
// every failure kind a batch check reports.
func TestChecksTable(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Checks {
		if names[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		names[c.Name] = true
		if c.Stride < 1 || c.Run == nil || len(c.Kinds) == 0 {
			t.Errorf("check %q: stride %d, run %v, kinds %v", c.Name, c.Stride, c.Run != nil, c.Kinds)
		}
	}
	for _, k := range []string{CheckDef1, CheckCost, CheckDeterminism, CheckErr, CheckExec,
		CheckPrefilterSound, CheckBatch, CheckIncremental, CheckShard} {
		if rerunFor(k) == nil {
			t.Errorf("no row re-runs failure kind %q: Shrink would return it unshrunk", k)
		}
	}
	// The churn rows split the seeds between them, as the campaign counts
	// (a quarter of the seeds each) rely on.
	for seed := int64(0); seed < 8; seed++ {
		for _, c := range Checks {
			want := c.Stride == 1 || (c.Name == "registry" && seed%4 == 0) || (c.Name == "shard" && seed%4 == 2)
			if c.Selects(seed) != want {
				t.Errorf("check %q on seed %d: selected %v", c.Name, seed, !want)
			}
		}
	}
}

// registryGenOptions shrinks a batch shape for churn replay: every churn
// event costs a from-scratch reconsolidation of the whole live set, so
// the check starts from two queries, not three.
func registryGenOptions(o GenOptions) GenOptions {
	o.Programs = 2
	return o
}

// TestShrink plants a bug the oracle reports as an interpreter error — a
// call to a function the library does not define, buried in a generated
// batch — and asserts the shrinker strips the surrounding noise while
// preserving the failure.
func TestShrink(t *testing.T) {
	b := Generate(11, DefaultGenOptions())
	// Bury the defect: an extra program whose prelude calls "nosuch".
	bad := &lang.Program{
		Name:   "bad",
		Params: append([]string(nil), b.Opts.Params...),
		Body: lang.SeqOf(
			lang.Assign{Var: "t0", E: lang.IntConst{Value: 3}},
			lang.Assign{Var: "t1", E: lang.Call{Func: "nosuch", Args: []lang.IntExpr{lang.Var{Name: "t0"}}}},
			lang.Cond{
				Test: lang.Cmp{Op: lang.Lt, L: lang.Var{Name: "t1"}, R: lang.IntConst{Value: 5}},
				Then: lang.Notify{ID: 1, Value: true},
				Else: lang.Notify{ID: 1, Value: false},
			},
		),
	}
	b.Progs = append(b.Progs, bad)

	f := CheckConsolidation(b)
	if f == nil {
		t.Fatal("planted undefined call did not fail the check")
	}
	if f.Check != CheckErr {
		t.Fatalf("planted defect classified as %s, want %s", f.Check, CheckErr)
	}
	g := Shrink(f, DefaultShrinkBudget)
	if g.Check != f.Check {
		t.Fatalf("shrinking changed the failure kind: %s -> %s", f.Check, g.Check)
	}
	if len(g.Batch.Progs) != 1 {
		t.Fatalf("shrunk batch still has %d programs, want 1", len(g.Batch.Progs))
	}
	if len(g.Batch.Inputs) != 1 {
		t.Fatalf("shrunk batch still has %d inputs, want 1", len(g.Batch.Inputs))
	}
	shrunk := g.Batch.Progs[0]
	// The survivor must derive from the planted program (the generated
	// ones pass in isolation), and must have actually gotten smaller. It
	// need not retain the nosuch call: shrinking may legitimately drift
	// the root cause within the same check (e.g. to an unbound read).
	if shrunk.Name != "bad" {
		t.Fatalf("survivor is %s, want the planted program", shrunk.Name)
	}
	if got, orig := lang.Size(shrunk.Body), lang.Size(bad.Body); got >= orig {
		t.Fatalf("shrinking did not reduce the program: size %d, original %d", got, orig)
	}
	// The shrunk reproducer must still fail the same way when re-run.
	if h := CheckConsolidation(g.Batch); h == nil || h.Check != CheckErr {
		t.Fatalf("shrunk batch no longer reproduces: %v", h)
	}
}

// TestShrinkLeavesCleanBatchesAlone asserts Shrink is a no-op on nil and
// batch-less failures.
func TestShrinkLeavesCleanBatchesAlone(t *testing.T) {
	if Shrink(nil, 10) != nil {
		t.Fatal("Shrink(nil) != nil")
	}
	f := &Failure{Check: CheckSMTSound, Seed: 3, Formula: "x < x"}
	if g := Shrink(f, 10); g != f {
		t.Fatal("Shrink rewrote an smt failure it cannot shrink")
	}
}

// TestGeneratedAggCasesWellFormed sweeps the aggregation generator: cases
// are deterministic, every generated aggregation passes CheckAgg and
// round-trips through the pretty-printer, and the serial replay runs to
// completion over every record.
func TestGeneratedAggCasesWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		a, b := GenAggCase(seed), GenAggCase(seed)
		if a.Sources() != b.Sources() || len(a.Inputs) != len(b.Inputs) {
			t.Fatalf("seed %d: same seed, different cases", seed)
		}
		for _, g := range a.Aggs {
			if err := lang.CheckAgg(g); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, g.Name, err)
			}
			q, err := lang.ParseAgg(lang.FormatAgg(g))
			if err != nil {
				t.Fatalf("seed %d: %s does not re-parse: %v", seed, g.Name, err)
			}
			if !lang.EqualAgg(g, q) {
				t.Fatalf("seed %d: %s round-trip changed the program", seed, g.Name)
			}
		}
		if _, err := engine.AggregateMany(newInputLibrary(a.Inputs), a.Aggs, engine.Options{}); err != nil {
			t.Fatalf("seed %d: serial replay: %v", seed, err)
		}
	}
}

// TestTrustedSat pins which Sat verdicts the prefilter check's SMT leg
// fails on: any on a query without a product of two non-constant terms,
// and on one with such a product only when the solver's assignment
// satisfies the query exactly.
func TestTrustedSat(t *testing.T) {
	x, y := logic.V("x"), logic.V("y")
	mul := func(l, r logic.Term) logic.Term { return logic.TBin{Op: logic.Mul, L: l, R: r} }
	product := logic.EqT(mul(x, y), logic.Num(6))
	// A constant factor built from constants is still linear.
	scaled := logic.Atom(logic.Lt, mul(logic.TBin{Op: logic.Sub, L: mul(logic.Num(0), logic.Num(-2)), R: logic.Num(10)}, y), x)
	cases := []struct {
		name string
		q    logic.Formula
		m    *logic.Model
		want bool
	}{
		{"linear", logic.Atom(logic.Lt, x, logic.Num(3)), nil, true},
		{"constant factor", scaled, nil, true},
		{"product, no assignment", product, nil, false},
		{"product, refuted", product, &logic.Model{Vars: map[string]int64{"x": 1, "y": 1}}, false},
		{"product, confirmed", product, &logic.Model{Vars: map[string]int64{"x": 2, "y": 3}}, true},
		{"product, undecided", product, &logic.Model{Vars: map[string]int64{"x": 2}}, false},
	}
	for _, c := range cases {
		if got := trustedSat(c.q, c.m); got != c.want {
			t.Errorf("%s: trustedSat(%s) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}
