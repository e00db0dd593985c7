package smt

import (
	"math/rand"

	"consolidation/internal/logic"
)

// This file is the solver's adversary: a brute-force reference model
// search plus a random formula generator, used by the oracle
// (internal/oracle) and this package's tests to cross-check verdicts. The search is
// authoritative in one direction only — every model it returns is
// verified by evaluation, so a RefSearch hit against an Unsat verdict is
// always a solver soundness bug, while an empty search proves nothing (a
// real model may need values outside the domain or an interpretation
// outside the family). Unknown verdicts are always permitted.

// RefConfig bounds the brute-force reference search.
type RefConfig struct {
	// Domain is the candidate value set for each free variable. Adjacent
	// integers matter: off-by-one bugs in strict-inequality handling only
	// show up when v and v+1 are both reachable.
	Domain []int64
	// Interps is the number of deterministic uninterpreted-function
	// interpretations tried (the fixed family of refInterp).
	Interps int
	// MaxVars caps the search; formulas with more free variables are
	// skipped (RefSearch reports no model).
	MaxVars int
}

// DefaultRefConfig explores a small dense domain: 6^4 assignments at most,
// times 6 interpretations, well under a millisecond per formula.
func DefaultRefConfig() RefConfig {
	return RefConfig{Domain: []int64{-3, -1, 0, 1, 2, 4}, Interps: 6, MaxVars: 4}
}

// RefSearch exhaustively searches for a model of f: every assignment of
// f's free variables over cfg.Domain, crossed with the refInterp family
// of UF interpretations. The returned model, when found, satisfies
// m.Eval(f) == true by construction.
func RefSearch(f logic.Formula, cfg RefConfig) (*logic.Model, bool) {
	vars := logic.Vars(f)
	if len(vars) > cfg.MaxVars || len(cfg.Domain) == 0 {
		return nil, false
	}
	asg := make([]int, len(vars))
	for k := 0; k < cfg.Interps; k++ {
		interp := refInterp(k)
		for i := range asg {
			asg[i] = 0
		}
		for {
			m := &logic.Model{Vars: make(map[string]int64, len(vars)), Funcs: interp}
			for i, v := range vars {
				m.Vars[v] = cfg.Domain[asg[i]]
			}
			if m.Eval(f) {
				return m, true
			}
			i := 0
			for ; i < len(asg); i++ {
				asg[i]++
				if asg[i] < len(cfg.Domain) {
					break
				}
				asg[i] = 0
			}
			if i == len(asg) {
				break
			}
		}
	}
	return nil, false
}

// refInterp returns the k-th member of a fixed family of deterministic
// UF interpretations, mixing structured functions (where congruence and
// arithmetic interact predictably) with salted pseudo-random ones. All
// outputs stay small so they land back inside typical domains.
func refInterp(k int) func(name string, args []int64) int64 {
	switch k {
	case 0: // sum of arguments, offset by the name
		return func(name string, args []int64) int64 {
			s := refNameHash(name) % 3
			for _, a := range args {
				s += a
			}
			return clampRef(s)
		}
	case 1: // constant per name
		return func(name string, args []int64) int64 {
			return refNameHash(name)%7 - 3
		}
	case 2: // first projection
		return func(name string, args []int64) int64 {
			if len(args) == 0 {
				return 0
			}
			return clampRef(args[0])
		}
	case 3: // negated first argument plus arity
		return func(name string, args []int64) int64 {
			if len(args) == 0 {
				return 1
			}
			return clampRef(-args[0] + int64(len(args)))
		}
	default: // salted hash of (name, args)
		salt := int64(k)
		return func(name string, args []int64) int64 {
			h := uint64(1469598103934665603) ^ uint64(salt)
			for i := 0; i < len(name); i++ {
				h ^= uint64(name[i])
				h *= 1099511628211
			}
			for _, a := range args {
				h ^= uint64(a)
				h *= 1099511628211
			}
			return int64(h%15) - 7
		}
	}
}

func refNameHash(name string) int64 {
	h := int64(0)
	for i := 0; i < len(name); i++ {
		h = h*31 + int64(name[i])
	}
	if h < 0 {
		h = -h
	}
	return h
}

func clampRef(v int64) int64 {
	const bound = 9
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}

// FormulaGenConfig tunes RandomFormula.
type FormulaGenConfig struct {
	// Vars are the variable names drawn from; Funcs the uninterpreted
	// function names (arity 1, except names ending in '2' which are
	// binary — matching the test conventions of this package).
	Vars  []string
	Funcs []string
	// MaxDepth bounds boolean connective nesting; term depth is bounded
	// separately at 3.
	MaxDepth int
	// UFBias skews term leaves toward function applications (congruence
	// pressure); LIABias suppresses them entirely (pure arithmetic).
	UFBias  bool
	LIABias bool
}

// DefaultFormulaGenConfig matches DefaultRefConfig's search budget: at
// most 4 variables, constants inside the reference domain's hull.
func DefaultFormulaGenConfig() FormulaGenConfig {
	return FormulaGenConfig{
		Vars:     []string{"x", "y", "z", "w"},
		Funcs:    []string{"f", "g", "h2"},
		MaxDepth: 3,
	}
}

// RandomFormula draws a random QF_UFLIA formula. The shapes mirror what
// consolidation emits — conjunctions of (possibly negated) comparisons
// over linear terms and UF applications — plus free boolean structure the
// fast literal-conjunction path never sees, so both solver paths are
// exercised.
func RandomFormula(rng *rand.Rand, cfg FormulaGenConfig) logic.Formula {
	return randFormula(rng, cfg, cfg.MaxDepth)
}

func randFormula(rng *rand.Rand, cfg FormulaGenConfig, depth int) logic.Formula {
	if depth <= 0 || rng.Intn(3) == 0 {
		pred := []logic.Pred{logic.Lt, logic.Eq, logic.Le}[rng.Intn(3)]
		return logic.Atom(pred, randTerm(rng, cfg, 3), randTerm(rng, cfg, 3))
	}
	switch rng.Intn(5) {
	case 0:
		return logic.Not(randFormula(rng, cfg, depth-1))
	case 1, 2:
		return logic.And(randFormula(rng, cfg, depth-1), randFormula(rng, cfg, depth-1))
	default:
		return logic.Or(randFormula(rng, cfg, depth-1), randFormula(rng, cfg, depth-1))
	}
}

func randTerm(rng *rand.Rand, cfg FormulaGenConfig, depth int) logic.Term {
	callW := 2
	if cfg.UFBias {
		callW = 5
	}
	if cfg.LIABias || len(cfg.Funcs) == 0 {
		callW = 0
	}
	k := rng.Intn(6 + callW)
	switch {
	case k == 0:
		return logic.Num(int64(rng.Intn(9) - 4))
	case k <= 2:
		return logic.V(cfg.Vars[rng.Intn(len(cfg.Vars))])
	case k <= 4 && depth > 0:
		op := []logic.TermOp{logic.Add, logic.Sub, logic.Mul}[rng.Intn(3)]
		l := randTerm(rng, cfg, depth-1)
		r := randTerm(rng, cfg, depth-1)
		if op == logic.Mul && rng.Intn(4) != 0 {
			// Mostly linear multiplication: scale by a constant, the shape
			// the simplex backend can actually decide.
			r = logic.Num(int64(rng.Intn(7) - 3))
		}
		return logic.TBin{Op: op, L: l, R: r}
	case k >= 6 && depth > 0:
		name := cfg.Funcs[rng.Intn(len(cfg.Funcs))]
		arity := 1
		if name[len(name)-1] == '2' {
			arity = 2
		}
		args := make([]logic.Term, arity)
		for i := range args {
			args[i] = randTerm(rng, cfg, depth-1)
		}
		return logic.TApp{Func: name, Args: args}
	default:
		return logic.V(cfg.Vars[rng.Intn(len(cfg.Vars))])
	}
}
