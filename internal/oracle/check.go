package oracle

import (
	"fmt"
	"math/rand"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/registry"
	"consolidation/internal/smt"
)

// Check names, one per differential property. A Failure's Check field is
// the shrinker's acceptance criterion: a shrunk candidate counts only if
// it fails the same check again.
const (
	// CheckDef1 is Definition 1: the consolidated program must notify
	// exactly the queries each original would, with identical verdicts.
	CheckDef1 = "definition1"
	// CheckCost is the §2 theorem: consolidated cost never exceeds the
	// sequential sum.
	CheckCost = "cost"
	// CheckDeterminism: parallel and serial consolidation must print the
	// same program.
	CheckDeterminism = "determinism"
	// CheckIncremental: Registry.Add/Remove under churn must stay
	// byte-identical to consolidate.All from scratch.
	CheckIncremental = "incremental"
	// CheckSMTSound: an smt verdict contradicted by a verified
	// brute-force model.
	CheckSMTSound = "smt-soundness"
	// CheckCtxAgree: a persistent solving context's verdict diverged from
	// the stateless pipeline (or went unsound) — cold, memoized, after
	// retraction, or under a starved budget.
	CheckCtxAgree = "context-agreement"
	// CheckIntern: the hash-consing arena broke one of its contracts —
	// structural equality ⟺ same NodeID, IDs deterministic across runs,
	// hashes interner-independent, or a round-trip through FormulaOf
	// changed the formula.
	CheckIntern = "interner"
	// CheckExec: the bytecode VM diverged from the tree-walking
	// interpreter — different verdicts, total cost, per-notification
	// stamps, or error behaviour on the same program and input, under the
	// default or a custom cost model.
	CheckExec = "executor"
	// CheckBatch: the engine's batched multi-core dispatch diverged from
	// the record-at-a-time reference — different verdicts, abstract costs,
	// admission counts, latency stamp sums, or selectivities at some
	// Workers/BatchSize combination.
	CheckBatch = "batch-parity"
	// CheckAggParity: the merged windowed-aggregation execution diverged
	// from the per-aggregation serial replay — different emitted verdicts,
	// window counts, or partition keys at some Workers/BatchSize
	// combination, on the split or unsplit path.
	CheckAggParity = "aggregate"
	// CheckPrefilterSound: a synthesized admission guard filtered a record
	// the consolidated program notifies on, or a notify-path condition
	// failed to imply the guard — the pre-filter lost a notification.
	CheckPrefilterSound = "prefilter"
	// CheckShard: the similarity-sharded registry diverged from its global
	// one-cluster configuration under churn — different per-query
	// notification sets at some point of the Add/Remove trace — or
	// WhereSharded diverged from its own record-at-a-time reference
	// (verdicts, costs, latency stamps) at some Workers/BatchSize
	// combination.
	CheckShard = "shard"
	// CheckErr marks infrastructure failures (consolidation or
	// interpretation errored, registry rejected a program) — not a
	// property violation, but still a bug in generator or system.
	CheckErr = "error"
)

// maxInterpSteps guards the oracle against generator bugs: generated
// loops are bounded by construction, so hitting this is itself a failure.
const maxInterpSteps = 1_000_000

// Failure is one oracle finding. It carries everything needed to
// reproduce and shrink: the check that fired, the generating seed, the
// (possibly shrunk) batch, and the offending input or formula.
type Failure struct {
	Check string
	Seed  int64
	Msg   string
	// Batch is set for consolidation/registry failures.
	Batch *Batch
	// Input is the first offending input record, when one is known.
	Input []int64
	// Formula is the offending formula's text for smt-soundness failures.
	Formula string
	// Events is the churn-trace length for incremental failures (the
	// shrinker must replay the same trace shape).
	Events int
}

func (f *Failure) Error() string {
	return fmt.Sprintf("oracle: check %s failed (seed %d): %s", f.Check, f.Seed, f.Msg)
}

func failf(check string, b *Batch, format string, args ...any) *Failure {
	var seed int64
	if b != nil {
		seed = b.Seed
	}
	return &Failure{Check: check, Seed: seed, Batch: b, Msg: fmt.Sprintf(format, args...)}
}

func run(lib lang.Library, p *lang.Program, in []int64) (*lang.Result, error) {
	interp := lang.NewInterp(lib)
	interp.MaxSteps = maxInterpSteps
	return interp.Run(p, in)
}

// execModels are the cost models the executor check runs under: the
// default, and a model whose every weight differs from the default (distinct
// primes), so an opcode charging any wrong cost component diverges from the
// interpreter immediately. nil selects the default in both executors.
var execModels = []*lang.CostModel{
	nil,
	{IntConst: 2, BoolConst: 3, Var: 5, Arith: 7, Cmp: 11,
		Neg: 13, BoolOp: 17, Assign: 19, Notify: 23, Branch: 29, CallBase: 31},
}

// diffExecutors runs p on in through both executors under cm and reports
// the first divergence: error presence, exact error strings, notification
// environments, total cost, or per-notification cost stamps.
func diffExecutors(b *Batch, lib lang.Library, p *lang.Program, cm *lang.CostModel, in []int64, label string) *Failure {
	interp := lang.NewInterp(lib)
	interp.MaxSteps = maxInterpSteps
	if cm != nil {
		interp.CM = cm
	}
	want, errI := interp.Run(p, in)

	comp, err := lang.Compile(p)
	if err != nil {
		return failf(CheckErr, b, "%s: compile %s: %v", label, p.Name, err)
	}
	var opts []lang.RunnerOption
	if cm != nil {
		opts = append(opts, lang.WithCostModel(cm))
	}
	rn := lang.NewRunner(comp, lib, opts...)
	rn.MaxSteps = maxInterpSteps
	notes, stamps, cost, errV := rn.Run(in)

	fail := func(format string, args ...any) *Failure {
		f := failf(CheckExec, b, "%s: %s on %v: %s", label, p.Name, in, fmt.Sprintf(format, args...))
		f.Input = in
		return f
	}
	if (errI == nil) != (errV == nil) {
		return fail("error divergence: interp %v, vm %v", errI, errV)
	}
	if errI != nil {
		if errI.Error() != errV.Error() {
			return fail("error strings diverge: interp %q, vm %q", errI, errV)
		}
		return nil
	}
	if !want.Notes.Equal(notes) {
		return fail("notes diverge: interp %v, vm %v", want.Notes, notes)
	}
	if want.Cost != cost {
		return fail("cost diverges: interp %d, vm %d", want.Cost, cost)
	}
	if len(want.NoteCosts) != len(stamps) {
		return fail("stamp sets diverge: interp %v, vm %v", want.NoteCosts, stamps)
	}
	for id, c := range want.NoteCosts {
		if stamps[id] != c {
			return fail("stamp[%d] diverges: interp %d, vm %d", id, c, stamps[id])
		}
	}
	return nil
}

// execErrorPrograms exercise the executor error paths the generator rarely
// produces: an unbound variable read (plain, and through fused test and
// cond-notify shapes), a duplicate notification, and a runaway loop.
var execErrorPrograms = []string{
	`func xe0(r) { x := mystery + 1; notify 0 (x > 0); }`,
	`func xe1(r) { if (mystery < 5) { notify 0 true; } else { notify 0 false; } }`,
	`func xe2(r) { notify 0 true; notify 0 false; }`,
	`func xe3(r) { i := 0; while (0 <= i) { i := i + 1; } notify 0 true; }`,
}

// CheckExecutor holds the bytecode VM to the tree-walking interpreter on
// the batch's originals, its consolidated program, and fixed error-path
// programs — under the default cost model and a custom one — demanding
// byte-identical verdicts, total costs, per-notification stamps, and error
// strings. nil means the executors agree everywhere.
func CheckExecutor(b *Batch) *Failure {
	lib := Lib()
	merged, _, err := consolidate.All(b.Progs, consolidate.Options{}, true, false)
	if err != nil {
		return failf(CheckErr, b, "consolidation: %v", err)
	}
	for _, cm := range execModels {
		label := "default-model"
		if cm != nil {
			label = "custom-model"
		}
		for _, in := range b.Inputs {
			for _, p := range b.Progs {
				if f := diffExecutors(b, lib, p, cm, in, label); f != nil {
					return f
				}
			}
			if f := diffExecutors(b, lib, merged, cm, in, label); f != nil {
				return f
			}
		}
	}
	// Error paths: both executors must fail identically, including under a
	// tight step bound.
	for _, src := range execErrorPrograms {
		p := lang.MustParse(src)
		for _, cm := range execModels {
			interp := lang.NewInterp(lib)
			interp.MaxSteps = 50
			if cm != nil {
				interp.CM = cm
			}
			_, errI := interp.Run(p, []int64{1})
			var opts []lang.RunnerOption
			if cm != nil {
				opts = append(opts, lang.WithCostModel(cm))
			}
			rn := lang.NewRunner(lang.MustCompile(p), lib, opts...)
			rn.MaxSteps = 50
			_, _, _, errV := rn.Run([]int64{1})
			if errI == nil || errV == nil {
				return failf(CheckExec, b, "error program %s: expected both executors to fail, interp %v, vm %v", p.Name, errI, errV)
			}
			if errI.Error() != errV.Error() {
				return failf(CheckExec, b, "error program %s: strings diverge: interp %q, vm %q", p.Name, errI, errV)
			}
		}
	}
	return nil
}

// CheckConsolidation consolidates the batch twice (serial and parallel
// divide-and-conquer) and replays every input through the interpreter,
// splitting violations into Definition 1 (wrong notification set or
// verdict), cost (§2 theorem), and determinism (serial/parallel output
// divergence). nil means the batch passed.
func CheckConsolidation(b *Batch) *Failure {
	lib := Lib()
	serial, _, err := consolidate.All(b.Progs, consolidate.Options{}, true, false)
	if err != nil {
		return failf(CheckErr, b, "serial consolidation: %v", err)
	}
	parallel, _, err := consolidate.All(b.Progs, consolidate.Options{}, true, true)
	if err != nil {
		return failf(CheckErr, b, "parallel consolidation: %v", err)
	}
	if s, p := lang.Format(serial), lang.Format(parallel); s != p {
		f := failf(CheckDeterminism, b, "serial and parallel consolidation disagree:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
		return f
	}
	for _, in := range b.Inputs {
		var sumCost int64
		want := lang.Notifications{}
		for i, p := range b.Progs {
			res, err := run(lib, p, in)
			if err != nil {
				f := failf(CheckErr, b, "original %s on %v: %v", p.Name, in, err)
				f.Input = in
				return f
			}
			sumCost += res.Cost
			// Notification ids were renumbered to program indices; each
			// original uses a single id, so its verdict (if any) lands on i.
			for _, v := range res.Notes {
				want[i] = v
			}
		}
		res, err := run(lib, serial, in)
		if err != nil {
			f := failf(CheckErr, b, "consolidated program on %v: %v", in, err)
			f.Input = in
			return f
		}
		if !res.Notes.Equal(want) {
			f := failf(CheckDef1, b, "input %v: consolidated notifies %v, originals notify %v", in, res.Notes, want)
			f.Input = in
			return f
		}
		if res.Cost > sumCost {
			f := failf(CheckCost, b, "input %v: consolidated cost %d exceeds sequential cost %d", in, res.Cost, sumCost)
			f.Input = in
			return f
		}
	}
	return nil
}

// CheckRegistry replays a random churn trace (adds and removes derived
// from the batch seed) against a cluster's registry, and after every
// event checks the flushed snapshot is byte-identical to the same builder,
// consolidate.Build, run from scratch without a memo over the registry's
// own (QueryID, program) leaves. nil means every flush matched.
func CheckRegistry(b *Batch, events int) *Failure {
	rng := rand.New(rand.NewSource(b.Seed ^ 0x5DEECE66D))
	reg, err := registry.New(registry.Options{Workers: 2})
	if err != nil {
		return failf(CheckErr, b, "registry.New: %v", err)
	}

	var live []registry.QueryID
	clones := 0
	add := func() *Failure {
		src := b.Progs[rng.Intn(len(b.Progs))]
		q := *src
		q.Name = fmt.Sprintf("%s_c%d", src.Name, clones)
		clones++
		id, err := reg.Add(&q)
		if err != nil {
			return failf(CheckErr, b, "registry.Add(%s): %v", q.Name, err)
		}
		live = append(live, id)
		return nil
	}
	check := func(event string) *Failure {
		snap, err := reg.Flush()
		if err != nil {
			return failf(CheckErr, b, "registry.Flush after %s: %v", event, err)
		}
		leaves := reg.Leaves()
		if len(leaves) == 0 {
			if snap.Merged != nil {
				f := failf(CheckIncremental, b, "after %s: empty registry published a non-nil program", event)
				f.Events = events
				return f
			}
			return nil
		}
		want, _, err := consolidate.Build(leaves, consolidate.Options{}, 1, nil)
		if err != nil {
			return failf(CheckErr, b, "from-scratch consolidation after %s: %v", event, err)
		}
		if snap.Merged == nil {
			f := failf(CheckIncremental, b, "after %s: registry holds %d queries but published no program", event, len(leaves))
			f.Events = events
			return f
		}
		got, wantText := lang.Format(snap.Merged), lang.Format(want)
		if got != wantText {
			f := failf(CheckIncremental, b, "after %s with %d live queries, incremental output diverges from scratch:\n--- incremental ---\n%s\n--- from scratch ---\n%s", event, len(leaves), got, wantText)
			f.Events = events
			return f
		}
		return nil
	}

	for range b.Progs {
		if f := add(); f != nil {
			return f
		}
	}
	if f := check("initial adds"); f != nil {
		return f
	}
	for e := 0; e < events; e++ {
		var event string
		if len(live) == 0 || rng.Intn(2) == 0 {
			if f := add(); f != nil {
				return f
			}
			event = fmt.Sprintf("event %d (add)", e)
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := reg.Remove(id); err != nil {
				return failf(CheckErr, b, "registry.Remove(%d): %v", id, err)
			}
			event = fmt.Sprintf("event %d (remove)", e)
		}
		if f := check(event); f != nil {
			return f
		}
	}
	return nil
}

// CheckSMT generates one random QF_UFLIA formula from the seed and
// cross-checks the solver against the brute-force reference search plus
// the cache-consistency invariants (the same properties FuzzSMTSoundness
// asserts, reported as a Failure instead of a test abort).
func CheckSMT(seed int64) *Failure {
	rng := rand.New(rand.NewSource(seed))
	cfg := smt.DefaultFormulaGenConfig()
	switch seed % 3 {
	case 1:
		cfg.UFBias = true
	case 2:
		cfg.LIABias = true
	}
	f := smt.RandomFormula(rng, cfg)
	fail := func(format string, args ...any) *Failure {
		return &Failure{Check: CheckSMTSound, Seed: seed, Formula: f.String(), Msg: fmt.Sprintf(format, args...)}
	}

	full := smt.New()
	got := full.Check(f)
	if m, ok := smt.RefSearch(f, smt.DefaultRefConfig()); ok && got == smt.Unsat {
		return fail("solver says unsat but brute-force search found a verified model %v", m.Vars)
	}
	if got == smt.Unsat && full.Check(logic.Not(f)) == smt.Unsat {
		return fail("both f and ¬f reported unsat")
	}
	if again := full.Check(f); again != got {
		return fail("verdict changed on cache-served re-check: %v then %v", got, again)
	}
	cache := smt.NewCache(0)
	tiny := smt.NewWithCache(cache)
	tiny.MaxConflicts, tiny.MaxLazyIters = 1, 1
	if tinyGot := tiny.Check(f); tinyGot != smt.Unknown && tinyGot != got {
		return fail("budget-capped solver decided %v, full solver %v", tinyGot, got)
	}
	if sharedGot := smt.NewWithCache(cache).Check(f); sharedGot != got {
		return fail("shared-cache verdict %v differs from fresh verdict %v (cache poisoning)", sharedGot, got)
	}
	return nil
}

// CheckInterner generates random formulas from the seed and holds the
// hash-consing arena to its contracts: interning is deterministic (two
// fresh arenas fed the same sequence assign identical NodeIDs and hashes),
// hashes are interner-independent (a third arena interning in reverse
// order computes the same hashes), structural equality coincides with ID
// equality, and FormulaOf round-trips. Every downstream key — the shared
// solver cache, the sym definition index, the registry merge-node cache —
// rests on these properties.
func CheckInterner(seed int64) *Failure {
	rng := rand.New(rand.NewSource(seed))
	cfg := smt.DefaultFormulaGenConfig()
	switch seed % 3 {
	case 1:
		cfg.UFBias = true
	case 2:
		cfg.LIABias = true
	}
	fs := make([]logic.Formula, 6)
	for i := range fs {
		fs[i] = smt.RandomFormula(rng, cfg)
	}
	fail := func(i int, format string, args ...any) *Failure {
		return &Failure{Check: CheckIntern, Seed: seed, Formula: fs[i].String(), Msg: fmt.Sprintf(format, args...)}
	}

	a, b := logic.NewInterner(), logic.NewInterner()
	rev := logic.NewInterner()
	for i := len(fs) - 1; i >= 0; i-- {
		rev.InternFormula(fs[i])
	}
	ids := make([]logic.NodeID, len(fs))
	for i, f := range fs {
		ids[i] = a.InternFormula(f)
		if bid := b.InternFormula(f); bid != ids[i] {
			return fail(i, "same construction sequence, different NodeIDs: %d vs %d", ids[i], bid)
		}
		if ha, hb := a.Hash(ids[i]), b.Hash(b.InternFormula(f)); ha != hb {
			return fail(i, "same formula, different hashes across arenas: %#x vs %#x", ha, hb)
		}
		if hr := rev.Hash(rev.InternFormula(f)); hr != a.Hash(ids[i]) {
			return fail(i, "hash depends on interning order: %#x vs %#x", a.Hash(ids[i]), hr)
		}
		if got := a.FormulaOf(ids[i]); !logic.Equal(got, f) {
			return fail(i, "FormulaOf round-trip changed the formula: %s", got)
		}
		if again := a.InternFormula(f); again != ids[i] {
			return fail(i, "re-interning moved the node: %d then %d", ids[i], again)
		}
	}
	for i := range fs {
		for j := range fs {
			if eq, same := logic.Equal(fs[i], fs[j]), ids[i] == ids[j]; eq != same {
				return fail(i, "structural equality (%v) disagrees with ID equality (%v) against %s", eq, same, fs[j])
			}
		}
	}
	return nil
}

// CheckSMTContext generates an assumption set Ψ₁…Ψₙ and goal φ from the
// seed and holds a persistent smt.Context to the stateless pipeline on
// (⋀Ψ ∧ ¬φ): byte-identical wherever the stateless solver decides, only
// soundly stronger where it exhausts (Unsat cross-checked against the
// brute-force search), with retraction, memo-stability, and starved-
// budget conservativeness variants — the properties
// TestContextAgreementCampaign asserts, reported as a Failure.
func CheckSMTContext(seed int64) *Failure {
	rng := rand.New(rand.NewSource(seed))
	cfg := smt.DefaultFormulaGenConfig()
	switch seed % 3 {
	case 1:
		cfg.UFBias = true
	case 2:
		cfg.LIABias = true
	}
	hyps := make([]logic.Formula, 2+rng.Intn(3))
	for i := range hyps {
		hyps[i] = smt.RandomFormula(rng, cfg)
	}
	goal := smt.RandomFormula(rng, cfg)
	composed := logic.And(logic.And(hyps...), logic.Not(goal))
	fail := func(format string, args ...any) *Failure {
		return &Failure{Check: CheckCtxAgree, Seed: seed, Formula: composed.String(), Msg: fmt.Sprintf(format, args...)}
	}
	// agree: byte-identity wherever the stateless pipeline decides; a warm
	// instance may decide a stateless Unknown, but an extra Unsat must
	// survive the brute-force model search.
	agree := func(label string, got, want smt.Result, query logic.Formula) *Failure {
		if want != smt.Unknown {
			if got != want {
				return fail("%s: context verdict %v, fresh solver %v (query %s)", label, got, want, query)
			}
			return nil
		}
		if got == smt.Unsat {
			if m, ok := smt.RefSearch(query, smt.DefaultRefConfig()); ok {
				return fail("%s: context says unsat (fresh solver unknown) but a model exists: %v (query %s)", label, m.Vars, query)
			}
		}
		return nil
	}

	fresh := smt.New()
	want := fresh.Check(composed)

	ctx := smt.NewSolvingContext()
	ctx.BeginRun(smt.New())
	aids := make([]int, len(hyps))
	for i, h := range hyps {
		aids[i] = ctx.Assert(h)
	}
	cone := func() []int { return aids }
	got := ctx.CheckAssuming(aids, goal, cone)
	if f := agree("cold check", got, want, composed); f != nil {
		return f
	}
	if again := ctx.CheckAssuming(aids, goal, cone); again != got {
		return fail("memoized re-check changed verdict: %v then %v", got, again)
	}
	sub := aids[:len(aids)-1]
	subComposed := logic.And(logic.And(hyps[:len(hyps)-1]...), logic.Not(goal))
	subWant := fresh.Check(subComposed)
	subGot := ctx.CheckAssuming(sub, goal, func() []int { return sub })
	if f := agree("after retraction", subGot, subWant, subComposed); f != nil {
		return f
	}
	if again := ctx.CheckAssuming(aids, goal, cone); again != got {
		return fail("verdict changed after retract/re-expand: %v then %v", got, again)
	}
	tinyCtx := smt.NewSolvingContext()
	tinySolver := smt.New()
	tinySolver.MaxConflicts, tinySolver.MaxLazyIters = 1, 1
	tinyCtx.BeginRun(tinySolver)
	tinyAids := make([]int, len(hyps))
	for i, h := range hyps {
		tinyAids[i] = tinyCtx.Assert(h)
	}
	tinyGot := tinyCtx.CheckAssuming(tinyAids, goal, func() []int { return tinyAids })
	if tinyGot != smt.Unknown && want != smt.Unknown && tinyGot != want {
		return fail("budget-capped context decided %v, full budget %v", tinyGot, want)
	}
	tinyFresh := smt.New()
	tinyFresh.MaxConflicts, tinyFresh.MaxLazyIters = 1, 1
	if tinyWant := tinyFresh.Check(composed); tinyGot == smt.Unknown && tinyWant != smt.Unknown {
		return fail("budget-capped context lost verdict %v the stateless pipeline decides", tinyWant)
	}
	return nil
}
