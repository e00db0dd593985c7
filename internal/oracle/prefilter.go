package oracle

import (
	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/prefilter"
	"consolidation/internal/smt"
)

// prefilterGuardOptions opens the cheap fragment wide (the oracle library's
// calls cost 15–40, far above an engine lite-decode bound) and relaxes the
// size caps: the engine bounds guards for per-record cheapness, but the
// oracle wants the richest non-trivial guards it can get, because a trivial
// guard makes every property below vacuous.
func prefilterGuardOptions() prefilter.Options {
	return prefilter.Options{
		Coster:      Lib(),
		MaxCallCost: 1000,
		MaxCalls:    64,
		MaxSize:     1024,
	}
}

// CheckPrefilter holds admission-guard synthesis to its soundness contract
// on the batch's consolidated program, with the fragment opened wide so
// generated batches yield non-trivial guards:
//
//   - SMT necessity: for every collected notify-path condition Ψ, the
//     query Ψ ∧ ¬G must not be satisfiable — the guard is implied whenever
//     any notify-true site is reached. A trusted Sat verdict (trustedSat)
//     is a synthesis bug; Unknown, and a Sat resting on an uninterpreted
//     product, are tolerated (the engine-side weakening was verified
//     through Entails, which treats Unknown as a refusal, not a proof).
//   - Differential replay (the brute-force small-domain search): every
//     probe input runs through both the compiled guard and the merged
//     program; a rejected input on which the merged program notifies true
//     is a soundness violation. Guard runtime errors fail open (the engine
//     admits on them), and merged-program errors on rejected inputs are
//     skipped — the filtered path forfeits error observation on rejected
//     records by design.
//
// nil means the guard is sound on this batch.
func CheckPrefilter(b *Batch) *Failure {
	lib := Lib()
	leaves := make([]consolidate.Leaf, len(b.Progs))
	for i, p := range b.Progs {
		leaves[i] = consolidate.Leaf{ID: i, Prog: p}
	}
	gopts := prefilterGuardOptions()
	plan, err := consolidate.Prepare(leaves, consolidate.Options{}, 1, nil, &gopts)
	if err != nil {
		return failf(CheckErr, b, "consolidation: %v", err)
	}
	guard := plan.Guard
	if guard.Trivial {
		// The admit-all guard filters nothing: vacuously sound.
		return nil
	}

	// SMT necessity, condition by condition.
	solver := smt.New()
	for i, nc := range guard.Conds {
		q := logic.And(append(append([]logic.Formula{}, nc.Conjuncts...), logic.Not(guard.Formula))...)
		if r, m := solver.CheckModel(q); r == smt.Sat && trustedSat(q, m) {
			f := failf(CheckPrefilterSound, b,
				"notify-path condition %d (id %d) does not imply the guard %s", i, nc.ID, guard.Test)
			f.Formula = q.String()
			return f
		}
	}

	// Differential replay over the probe grid.
	mrn := lang.NewRunner(plan.Compiled, lib)
	mrn.MaxSteps = maxInterpSteps
	grn := lang.NewRunner(guard.Compiled, lib)
	grn.MaxSteps = maxInterpSteps
	for _, in := range b.Inputs {
		if _, err := grn.RunDense(in); err != nil {
			// Fail-open: the engine admits the record and the merged program
			// decides, so a guard error can never lose a notification.
			continue
		}
		if guard.Admits(grn) {
			continue
		}
		if _, err := mrn.RunDense(in); err != nil {
			continue
		}
		for _, id := range plan.Compiled.NoteIDs() {
			if v, ok := mrn.Note(id); ok && v {
				return failf(CheckPrefilterSound, b,
					"guard %s rejects input %v but the consolidated program notifies %d true", guard.Test, in, id).on(in)
			}
		}
	}
	return nil
}

// trustedSat reports whether the solver's Sat on q, ending on assignment m
// (nil for none), shows q satisfiable. The solver abstracts a product of two
// non-constant terms as an uninterpreted function, so with one in q only an
// m that satisfies q exactly counts.
func trustedSat(q logic.Formula, m *logic.Model) bool {
	if m != nil {
		if v, ok := m.Decide(q); ok && v {
			return true
		}
	}
	linear := true
	logic.Inspect(q, func(n logic.Node) bool {
		x, ok := n.(logic.TBin)
		linear = linear && (!ok || x.Op != logic.Mul || ground(x.L) || ground(x.R))
		return linear
	})
	return linear
}

// ground reports whether t reads no variable and applies no function: the
// empty model decides it.
func ground(t logic.Term) bool {
	_, ok := new(logic.Model).Decide(logic.EqT(t, t))
	return ok
}
