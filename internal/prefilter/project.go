package prefilter

import (
	"consolidation/internal/logic"
)

// projector weakens one notify-path condition into the cheap fragment.
type projector struct {
	opts   *Options
	params map[string]bool
}

// project turns an SSA-versioned conjunct list into a fragment formula
// implied by it. Defining equalities (`x%n == rhs`) are substituted into
// later conjuncts and dropped — sound because (v = rhs) ∧ P(v) entails
// P(rhs) — after which every literal still mentioning a versioned variable
// (havocked, or its definition was trimmed) or an over-budget call is
// weakened to ⊤ in NNF.
func (p *projector) project(conjuncts []logic.Formula) logic.Formula {
	sub := map[string]logic.Term{}
	var kept []logic.Formula
	for _, f := range conjuncts {
		// Conjuncts arrive in assumption order and SSA versions are fresh,
		// so a version's definition always precedes its uses: one forward
		// substitution pass resolves chains.
		f = logic.Subst(f, sub)
		if v, rhs, ok := p.defEquality(f); ok {
			sub[v] = rhs
			continue
		}
		kept = append(kept, f)
	}
	out := make([]logic.Formula, len(kept))
	for i, f := range kept {
		out[i] = p.weaken(logic.NNF(f))
	}
	return logic.And(out...)
}

// defEquality recognizes an equality conjunct usable as a substitution:
// one side a non-parameter variable not occurring on the other side.
func (p *projector) defEquality(f logic.Formula) (string, logic.Term, bool) {
	a, ok := f.(logic.FAtom)
	if !ok || a.Pred != logic.Eq {
		return "", nil, false
	}
	if v, ok := a.L.(logic.TVar); ok && !p.params[v.Name] && !occurs(a.R, v.Name) {
		return v.Name, a.R, true
	}
	if v, ok := a.R.(logic.TVar); ok && !p.params[v.Name] && !occurs(a.L, v.Name) {
		return v.Name, a.L, true
	}
	return "", nil, false
}

func occurs(t logic.Term, name string) bool {
	found := false
	logic.Inspect(t, func(n logic.Node) bool {
		if v, ok := n.(logic.TVar); ok && v.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// weaken replaces every literal outside the cheap fragment with ⊤. The
// input is in NNF (negations only directly above atoms), where replacing
// any literal with ⊤ is monotone: the result is implied by the input.
func (p *projector) weaken(f logic.Formula) logic.Formula {
	switch x := f.(type) {
	case logic.FTrue, logic.FFalse:
		return f
	case logic.FAtom:
		if p.cleanTerm(x.L) && p.cleanTerm(x.R) {
			return f
		}
		return logic.FTrue{}
	case logic.FNot:
		if a, ok := x.F.(logic.FAtom); ok && p.cleanTerm(a.L) && p.cleanTerm(a.R) {
			return f
		}
		return logic.FTrue{}
	case logic.FAnd:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = p.weaken(g)
		}
		return logic.And(fs...)
	case logic.FOr:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = p.weaken(g)
		}
		return logic.Or(fs...)
	}
	return logic.FTrue{}
}

// cleanTerm reports whether a term stays within the cheap fragment:
// constants, the program parameters, arithmetic over them, and calls
// priced within MaxCallCost whose arguments are themselves clean.
func (p *projector) cleanTerm(t logic.Term) bool {
	clean := true
	logic.Inspect(t, func(n logic.Node) bool {
		switch x := n.(type) {
		case logic.TVar:
			clean = clean && p.params[x.Name]
		case logic.TApp:
			clean = clean && p.callCost(x.Func) <= p.opts.MaxCallCost
		}
		return clean
	})
	return clean
}

func (p *projector) callCost(fn string) int64 {
	if p.opts.Coster != nil {
		if c, ok := p.opts.Coster.FuncCost(fn); ok {
			return c
		}
	}
	return costModel.CallBase
}
