package consolidate

import (
	"math"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

// Homomorphic fold detection and verification, after "Homomorphism
// Calculus for User-Defined Aggregations": a fold over a window splits
// into per-batch partials combined at window close when each accumulator's
// updates are drawn from one commutative-monoid (sum) or semilattice
// (max/min) shape whose operands never depend on accumulator state.
//
// Detection is structural (classifyFold); the laws the split relies on are
// then discharged per control-flow path by the SMT solver (verifyHom):
//
//   - sum accumulator a:    C_π ⊨ v_π(a) = a + v_π(a)[a:=0]
//     (the path's contribution to a is additive and a-independent, so
//     per-batch partials starting from 0 combine with + in any grouping);
//   - max accumulator a:    C_π ⊨ a ≤ v_π(a)
//     (the fold never decreases a; with the structural guarantee that
//     every update writes an a-independent comparand, the final value is
//     max(a, fired comparands), so per-batch partials starting from the
//     −∞ identity combine with max — dually for min).
//
// A fold the classifier or the solver cannot verify simply runs on the
// non-split window-parallel path: detection failures degrade performance,
// never correctness.

// HomOp is the combine operator of one homomorphic accumulator.
type HomOp int

// Combine operators.
const (
	HomSum HomOp = iota
	HomMax
	HomMin
)

func (op HomOp) String() string {
	switch op {
	case HomSum:
		return "sum"
	case HomMax:
		return "max"
	case HomMin:
		return "min"
	}
	return "hom?"
}

// Identity returns the operator's identity element: per-batch partials
// start from it, and combining it with any value is a no-op.
func (op HomOp) Identity() int64 {
	switch op {
	case HomMax:
		return math.MinInt64
	case HomMin:
		return math.MaxInt64
	}
	return 0
}

// Combine applies the operator. Sum uses Go's wrapping int64 addition —
// exactly the VM's arithmetic — so partial/combine grouping cannot change
// the result even on overflow.
func (op HomOp) Combine(a, b int64) int64 {
	switch op {
	case HomMax:
		if b > a {
			return b
		}
		return a
	case HomMin:
		if b < a {
			return b
		}
		return a
	}
	return a + b
}

// maxHomPaths bounds the path enumeration of verifyHom. The enumeration
// runs per accumulator over its projected fold (projectFold), so the bound
// scales with one accumulator's update sites, not with the number of
// merged members.
const maxHomPaths = 64

// classifyFold structurally classifies every accumulator's update shape in
// a fold body. It returns ops[i] for accs[i] and ok=true when every
// accumulator fits one shape:
//
//	a := a + e            (sum; also e + a)
//	if (a < e) { a := e } (max; Le variant allowed)
//	if (e < a) { a := e } (min; Le variant allowed)
//
// with every comparand/addend e and every other guard accumulator-free,
// non-accumulator assignments accumulator-free, and no loops. Updates may
// repeat and sit under accumulator-free conditionals; one accumulator's
// updates must all use the same shape. Untouched accumulators classify as
// sum (their partial stays 0). A max/min guard's branches may carry extra
// statements (Ω embeds the other members there) as long as the remainders
// match once the guarded update is removed — see the Cond case.
func classifyFold(body lang.Stmt, accs []string) ([]HomOp, bool) {
	isAcc := map[string]bool{}
	for _, a := range accs {
		isAcc[a] = true
	}
	ops := map[string]HomOp{}
	record := func(a string, op HomOp) bool {
		if prev, ok := ops[a]; ok && prev != op {
			return false
		}
		ops[a] = op
		return true
	}
	var walk func(s lang.Stmt) bool
	walk = func(s lang.Stmt) bool {
		switch t := s.(type) {
		case lang.Skip, lang.Notify:
			return true
		case lang.Seq:
			return walk(t.L) && walk(t.R)
		case lang.Assign:
			if !isAcc[t.Var] {
				// Locals must not smuggle accumulator state into later
				// updates.
				return !readsAcc(t.E, isAcc)
			}
			b, ok := t.E.(lang.BinInt)
			if !ok || b.Op != lang.Add {
				return false
			}
			var e lang.IntExpr
			if v, ok := b.L.(lang.Var); ok && v.Name == t.Var {
				e = b.R
			} else if v, ok := b.R.(lang.Var); ok && v.Name == t.Var {
				e = b.L
			} else {
				return false
			}
			return !readsAcc(e, isAcc) && record(t.Var, HomSum)
		case lang.Cond:
			cmp, ok := t.Test.(lang.Cmp)
			accTest := ok && func() bool {
				switch {
				case isAccVar(cmp.L, isAcc), isAccVar(cmp.R, isAcc):
					return true
				}
				return false
			}()
			if !accTest {
				// Ordinary guard: must be accumulator-free, branches recurse.
				if readsAcc(t.Test, isAcc) {
					return false
				}
				return walk(t.Then) && walk(t.Else)
			}
			// Accumulator-comparing guard: a max or min update of the guard
			// accumulator. Ω routinely embeds the other members' statements
			// into both branches of such a guard, so the branches may carry
			// extra statements — but only if the remainders are identical
			// once the guarded update is removed. That equality is what
			// keeps the split sound: it guarantees no other accumulator's
			// update depends on this accumulator's guard, so every
			// accumulator's step function reads only its own state.
			if cmp.Op != lang.Lt && cmp.Op != lang.Le {
				return false
			}
			var a string
			var op HomOp
			var e lang.IntExpr
			switch {
			case isAccVar(cmp.L, isAcc) && isAccVar(cmp.R, isAcc):
				return false
			case isAccVar(cmp.L, isAcc):
				a, op, e = cmp.L.(lang.Var).Name, HomMax, cmp.R // if (a < e) { a := e }
			default:
				a, op, e = cmp.R.(lang.Var).Name, HomMin, cmp.L // if (e < a) { a := e }
			}
			if readsAcc(e, isAcc) {
				return false
			}
			if lang.AssignedVars(t.Else)[a] {
				return false
			}
			// Exactly one update of a in Then, at top level, writing the
			// comparand (or none at all: a redundant guard Ω may leave).
			// The rest of Then must equal Else, which does not assign a,
			// so no update can hide under another guard.
			rest := make([]lang.Stmt, 0, 4)
			found := false
			for _, s2 := range lang.Flatten(t.Then) {
				if asg, ok := s2.(lang.Assign); ok && asg.Var == a {
					if found || !lang.EqualInt(asg.E, e) {
						return false
					}
					found = true
					continue
				}
				rest = append(rest, s2)
			}
			remainder := lang.SeqOf(rest...)
			if !lang.EqualStmt(remainder, lang.SeqOf(lang.Flatten(t.Else)...)) {
				return false
			}
			if found && !record(a, op) {
				return false
			}
			return walk(remainder)
		default: // While
			return false
		}
	}
	if !walk(body) {
		return nil, false
	}
	out := make([]HomOp, len(accs))
	for i, a := range accs {
		if op, ok := ops[a]; ok {
			out[i] = op
		} else {
			out[i] = HomSum
		}
	}
	return out, true
}

func isAccVar(e lang.IntExpr, isAcc map[string]bool) bool {
	v, ok := e.(lang.Var)
	return ok && isAcc[v.Name]
}

// readsAcc reports whether n reads an accumulator.
func readsAcc(n lang.Node, isAcc map[string]bool) bool {
	for v := range lang.UsedVars(n) {
		if isAcc[v] {
			return true
		}
	}
	return false
}

// projectFold reduces a classified fold body to the statements that can
// affect accumulator a. Other accumulators' assignments drop; a guard
// comparing another accumulator collapses to its else branch, which the
// classifier's branch-equality rule guarantees equals the then remainder —
// so every statement relevant to a survives the collapse. Conditionals
// whose projected branches are both empty drop entirely, which is what
// keeps the per-accumulator path count independent of how many members the
// merge combined.
func projectFold(s lang.Stmt, a string, isAcc map[string]bool) lang.Stmt {
	switch t := s.(type) {
	case lang.Skip, lang.Notify:
		return lang.Skip{}
	case lang.Assign:
		if isAcc[t.Var] && t.Var != a {
			return lang.Skip{}
		}
		return t
	case lang.Seq:
		return lang.SeqOf(projectFold(t.L, a, isAcc), projectFold(t.R, a, isAcc))
	case lang.Cond:
		if cmp, ok := t.Test.(lang.Cmp); ok {
			otherAcc := func(e lang.IntExpr) bool {
				v, ok := e.(lang.Var)
				return ok && isAcc[v.Name] && v.Name != a
			}
			if otherAcc(cmp.L) || otherAcc(cmp.R) {
				return projectFold(t.Else, a, isAcc)
			}
		}
		th := projectFold(t.Then, a, isAcc)
		el := projectFold(t.Else, a, isAcc)
		if len(lang.Flatten(th)) == 0 && len(lang.Flatten(el)) == 0 {
			return lang.Skip{}
		}
		return lang.Cond{Test: t.Test, Then: th, Else: el}
	}
	return s
}

// verifyHom discharges the homomorphism laws of a classified fold with
// solver. Each accumulator is checked path by path over its projection of
// the fold (projectFold) — sound because the classifier
// only accepts folds where each accumulator's updates are independent of
// the others' state, and necessary because the whole merged body's path
// count grows exponentially with the number of merged members. Returns
// false — caller falls back to the unsplit fold — when a path count still
// explodes or the solver cannot prove a law.
func verifyHom(solver *smt.Solver, body lang.Stmt, accs []string, ops []HomOp) bool {
	isAcc := map[string]bool{}
	for _, a := range accs {
		isAcc[a] = true
	}
	for i, a := range accs {
		paths, ok := sym.Summarize(projectFold(body, a, isAcc), maxHomPaths)
		if !ok {
			return false
		}
		for _, p := range paths {
			v := p.FinalValue(a)
			if lang.EqualInt(v, lang.Var{Name: a}) {
				continue // untouched on this path
			}
			hyps := make([]logic.Formula, len(p.Conds))
			for j, c := range p.Conds {
				hyps[j] = logic.FromBoolExpr(c, nil)
			}
			final := logic.FromIntExpr(v, nil)
			var goal logic.Formula
			switch ops[i] {
			case HomSum:
				zeroed := sym.Subst(v, map[string]lang.IntExpr{a: lang.IntConst{Value: 0}})
				goal = logic.EqT(final, logic.TBin{Op: logic.Add, L: logic.V(a), R: logic.FromIntExpr(zeroed, nil)})
			case HomMax:
				goal = logic.Atom(logic.Le, logic.V(a), final)
			case HomMin:
				goal = logic.Atom(logic.Le, final, logic.V(a))
			}
			if !solver.EntailsAll(hyps, goal) {
				return false
			}
		}
	}
	return true
}
