// Package consolidate implements the paper's core contribution: the
// consolidation calculus (Figures 3, 5 and 7) and the consolidation
// algorithm Ω (Figure 8), which merge programs that operate on the same
// input into a single program whose cost never exceeds — and usually
// undercuts — the cost of running them sequentially.
package consolidate

import (
	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/sym"
)

// Simplifier implements the cross-simplification judgments Ψ ⊢ᵢ e : e' and
// Ψ ⊢_b e : e' of Figure 3: under context Ψ, expression e is provably
// equivalent to e', and the static cost of e' does not exceed that of e.
type Simplifier struct {
	CM *lang.CostModel
	// FC prices library calls; nil falls back to CM.CallBase.
	FC lang.FuncCoster
}

const (
	// maxProbes bounds the SMT equality probes per call subterm.
	maxProbes = 6
	// offsetRange bounds |c| when a call subterm g is rewritten to v ∓ c
	// by a live definition v := g ± c (the paper's Example 4).
	offsetRange = 2
)

// NewSimplifier returns a simplifier over the given cost model.
func NewSimplifier(cm *lang.CostModel, fc lang.FuncCoster) *Simplifier {
	return &Simplifier{CM: cm, FC: fc}
}

// SimplifyBool computes Ψ ⊢_b e : e'. Rules Bool 1/2 try to resolve e to a
// constant; Bool 3 simplifies comparison operands with ⊢ᵢ; Bool 4/5 recurse
// through connectives and constant-fold (the paper's fold operation).
func (s *Simplifier) SimplifyBool(ctx *sym.Context, e lang.BoolExpr) lang.BoolExpr {
	if _, ok := e.(lang.BoolConst); ok {
		return e
	}
	f := ctx.TranslateBool(e)
	if ctx.Entails(f) {
		return lang.BoolConst{Value: true}
	}
	if ctx.Entails(logic.Not(f)) {
		return lang.BoolConst{Value: false}
	}
	switch t := e.(type) {
	case lang.Cmp:
		return lang.Cmp{Op: t.Op, L: s.SimplifyInt(ctx, t.L), R: s.SimplifyInt(ctx, t.R)}
	case lang.Not:
		return foldBool(lang.Not{E: s.SimplifyBool(ctx, t.E)})
	case lang.BinBool:
		return foldBool(lang.BinBool{Op: t.Op, L: s.SimplifyBool(ctx, t.L), R: s.SimplifyBool(ctx, t.R)})
	}
	return e
}

// SimplifyInt computes Ψ ⊢ᵢ e : e'. It tries, in order: an exact
// memoization hit (a live variable holding e's value, possibly with a small
// constant offset), SMT-backed replacement of expensive call subterms by
// live variables, and structural recursion with constant folding.
// The result is returned only when its static cost does not exceed e's.
func (s *Simplifier) SimplifyInt(ctx *sym.Context, e lang.IntExpr) lang.IntExpr {
	orig := s.CM.StaticIntCost(e, s.FC)
	best := s.simplifyInt(ctx, e)
	best = foldInt(best)
	if s.CM.StaticIntCost(best, s.FC) <= orig {
		return best
	}
	return e
}

func (s *Simplifier) simplifyInt(ctx *sym.Context, e lang.IntExpr) lang.IntExpr {
	switch t := e.(type) {
	case lang.IntConst, lang.Var:
		return e
	case lang.Call:
		if r, ok := s.replaceCall(ctx, t); ok {
			return r
		}
		args := make([]lang.IntExpr, len(t.Args))
		for i, a := range t.Args {
			args[i] = s.SimplifyInt(ctx, a)
		}
		return lang.Call{Func: t.Func, Args: args}
	case lang.BinInt:
		return lang.BinInt{Op: t.Op, L: s.simplifyInt(ctx, t.L), R: s.simplifyInt(ctx, t.R)}
	}
	return e
}

// replaceCall tries to rewrite a library call g to a live variable: exact
// match or a ±c offset through the definition index, then an SMT-verified
// equality against variables whose definitions mention the same function.
func (s *Simplifier) replaceCall(ctx *sym.Context, call lang.Call) (lang.IntExpr, bool) {
	g := ctx.TranslateInt(call)
	in := ctx.Interner()
	gid := in.InternTerm(g)
	// Fast path: static memoization via the definition index, keyed by the
	// interned node rather than rendered term text. A definition v := g + c
	// makes g ≡ v − c syntactically, so offsets need no solver either.
	if v, ok := ctx.LookupDefID(gid); ok {
		return lang.Var{Name: v}, true
	}
	if v, c, ok := ctx.LookupOffsetID(gid); ok && -offsetRange <= c && c <= offsetRange {
		return rebuildAdd(lang.Var{Name: v}, -c), true
	}
	// Slow path: SMT probes against definitions that called the same
	// function, most recent first. Definitions whose call instances cannot
	// unify with this call (different constant arguments) are skipped —
	// equality is impossible there, and the filter keeps probing linear in
	// practice.
	gKey, _ := in.AppCallKey(gid)
	defs := ctx.DefsByFunc(call.Func)
	probes := 0
	for i := len(defs) - 1; i >= 0 && probes < maxProbes; i-- {
		d := defs[i]
		unifies := false
		for _, k := range d.Keys {
			if in.KeysUnify(k, gKey) {
				unifies = true
				break
			}
		}
		if !unifies {
			continue
		}
		probes++
		// DefsByFunc returns current definitions only.
		if ctx.Entails(logic.EqT(ctx.CurTerm(d.Var), g)) {
			return lang.Var{Name: d.Var}, true
		}
	}
	return nil, false
}

// foldInt performs constant folding and additive-chain normalisation on an
// integer expression: (v - 1) - 1 becomes v - 2, e + 0 becomes e, and so
// on. Folding never increases static cost.
func foldInt(e lang.IntExpr) lang.IntExpr {
	switch t := e.(type) {
	case lang.IntConst, lang.Var:
		return e
	case lang.Call:
		args := make([]lang.IntExpr, len(t.Args))
		for i, a := range t.Args {
			args[i] = foldInt(a)
		}
		return lang.Call{Func: t.Func, Args: args}
	case lang.BinInt:
		l := foldInt(t.L)
		r := foldInt(t.R)
		lc, lok := l.(lang.IntConst)
		rc, rok := r.(lang.IntConst)
		if lok && rok {
			switch t.Op {
			case lang.Add:
				return lang.IntConst{Value: lc.Value + rc.Value}
			case lang.Sub:
				return lang.IntConst{Value: lc.Value - rc.Value}
			case lang.Mul:
				return lang.IntConst{Value: lc.Value * rc.Value}
			}
		}
		switch t.Op {
		case lang.Add:
			if rok && rc.Value == 0 {
				return l
			}
			if lok && lc.Value == 0 {
				return r
			}
			// (base ± c1) + c2 → base + (c1 + c2)
			if rok {
				if base, c1, ok := addChain(l); ok {
					return rebuildAdd(base, c1+rc.Value)
				}
			}
		case lang.Sub:
			if rok && rc.Value == 0 {
				return l
			}
			if rok {
				if base, c1, ok := addChain(l); ok {
					return rebuildAdd(base, c1-rc.Value)
				}
			}
		case lang.Mul:
			if rok && rc.Value == 1 {
				return l
			}
			if lok && lc.Value == 1 {
				return r
			}
			if (rok && rc.Value == 0) || (lok && lc.Value == 0) {
				return lang.IntConst{Value: 0}
			}
		}
		return lang.BinInt{Op: t.Op, L: l, R: r}
	}
	return e
}

// addChain decomposes e into (base, c) with e ≡ base + c when e is an
// additive chain ending in a constant.
func addChain(e lang.IntExpr) (lang.IntExpr, int64, bool) {
	if b, ok := e.(lang.BinInt); ok {
		if c, cok := b.R.(lang.IntConst); cok {
			switch b.Op {
			case lang.Add:
				return b.L, c.Value, true
			case lang.Sub:
				return b.L, -c.Value, true
			}
		}
	}
	return e, 0, true
}

func rebuildAdd(base lang.IntExpr, c int64) lang.IntExpr {
	switch {
	case c == 0:
		return base
	case c < 0:
		return lang.BinInt{Op: lang.Sub, L: base, R: lang.IntConst{Value: -c}}
	default:
		return lang.BinInt{Op: lang.Add, L: base, R: lang.IntConst{Value: c}}
	}
}

// foldBool is the paper's fold operation on boolean expressions:
// fold(e ∧ ⊤) = e, fold(⊥ ∧ e) = ⊥, fold(¬⊤) = ⊥, and duals.
func foldBool(e lang.BoolExpr) lang.BoolExpr {
	switch t := e.(type) {
	case lang.Not:
		if c, ok := t.E.(lang.BoolConst); ok {
			return lang.BoolConst{Value: !c.Value}
		}
		if n, ok := t.E.(lang.Not); ok {
			return n.E
		}
		return t
	case lang.BinBool:
		lc, lok := t.L.(lang.BoolConst)
		rc, rok := t.R.(lang.BoolConst)
		switch t.Op {
		case lang.And:
			if lok {
				if !lc.Value {
					return lang.BoolConst{Value: false}
				}
				return t.R
			}
			if rok {
				if !rc.Value {
					return lang.BoolConst{Value: false}
				}
				return t.L
			}
		case lang.Or:
			if lok {
				if lc.Value {
					return lang.BoolConst{Value: true}
				}
				return t.R
			}
			if rok {
				if rc.Value {
					return lang.BoolConst{Value: true}
				}
				return t.L
			}
		}
		return t
	}
	return e
}
