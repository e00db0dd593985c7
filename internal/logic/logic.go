// Package logic defines the constraint language of the consolidation
// calculus: quantifier-free first-order formulas over the combined theory of
// linear integer arithmetic and uninterpreted functions (Section 4).
// Arithmetic expressions of the source language map to integer terms;
// library calls map to uninterpreted function applications.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Node is any term or formula. Inspect walks it.
type Node interface {
	node()
	String() string
}

// Term is an integer-sorted term.
type Term interface {
	Node
	isTerm()
}

// TConst is an integer constant.
type TConst struct{ Value int64 }

// TVar is an integer variable (an SSA-versioned program variable or a
// program parameter).
type TVar struct{ Name string }

// TApp is an uninterpreted function application f(t1,…,tk).
type TApp struct {
	Func string
	Args []Term
}

// TBin is t1 ⊙ t2 for ⊙ ∈ {+,-,*}.
type TBin struct {
	Op   TermOp
	L, R Term
}

// TermOp is an arithmetic operator on terms.
type TermOp int

// Term operators.
const (
	Add TermOp = iota
	Sub
	Mul
)

func (op TermOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	}
	return "?"
}

func (TConst) isTerm() {}
func (TVar) isTerm()   {}
func (TApp) isTerm()   {}
func (TBin) isTerm()   {}

func (TConst) node() {}
func (TVar) node()   {}
func (TApp) node()   {}
func (TBin) node()   {}

func (t TConst) String() string { return fmt.Sprintf("%d", t.Value) }
func (t TVar) String() string   { return t.Name }

func (t TApp) String() string {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", t.Func, strings.Join(args, ","))
}

func (t TBin) String() string { return fmt.Sprintf("(%s %s %s)", t.L, t.Op, t.R) }

// Pred is an atomic predicate symbol (▷ ∈ {<,=,≤}).
type Pred int

// Atomic predicates.
const (
	Lt Pred = iota
	Eq
	Le
)

func (p Pred) String() string {
	switch p {
	case Lt:
		return "<"
	case Eq:
		return "="
	case Le:
		return "<="
	}
	return "?"
}

// Formula is a quantifier-free formula.
type Formula interface {
	Node
	isFormula()
}

// FTrue is ⊤.
type FTrue struct{}

// FFalse is ⊥.
type FFalse struct{}

// FAtom is the atomic constraint L ▷ R.
type FAtom struct {
	Pred Pred
	L, R Term
}

// FNot is ¬F.
type FNot struct{ F Formula }

// FAnd is the conjunction of its operands (n-ary; empty means ⊤).
type FAnd struct{ Fs []Formula }

// FOr is the disjunction of its operands (n-ary; empty means ⊥).
type FOr struct{ Fs []Formula }

func (FTrue) isFormula()  {}
func (FFalse) isFormula() {}
func (FAtom) isFormula()  {}
func (FNot) isFormula()   {}
func (FAnd) isFormula()   {}
func (FOr) isFormula()    {}

func (FTrue) node()  {}
func (FFalse) node() {}
func (FAtom) node()  {}
func (FNot) node()   {}
func (FAnd) node()   {}
func (FOr) node()    {}

func (FTrue) String() string  { return "true" }
func (FFalse) String() string { return "false" }

func (f FAtom) String() string { return fmt.Sprintf("(%s %s %s)", f.L, f.Pred, f.R) }
func (f FNot) String() string  { return fmt.Sprintf("¬%s", f.F) }

func (f FAnd) String() string {
	if len(f.Fs) == 0 {
		return "true"
	}
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = g.String()
	}
	return "(" + strings.Join(parts, " ∧ ") + ")"
}

func (f FOr) String() string {
	if len(f.Fs) == 0 {
		return "false"
	}
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = g.String()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// And builds a conjunction, flattening nested conjunctions and dropping ⊤;
// any ⊥ collapses the result.
func And(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch t := f.(type) {
		case FTrue:
		case FFalse:
			return FFalse{}
		case FAnd:
			out = append(out, t.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FTrue{}
	case 1:
		return out[0]
	}
	return FAnd{Fs: out}
}

// Or builds a disjunction, flattening nested disjunctions and dropping ⊥;
// any ⊤ collapses the result.
func Or(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch t := f.(type) {
		case FFalse:
		case FTrue:
			return FTrue{}
		case FOr:
			out = append(out, t.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FFalse{}
	case 1:
		return out[0]
	}
	return FOr{Fs: out}
}

// Not builds a negation, cancelling double negations and constants.
func Not(f Formula) Formula {
	switch t := f.(type) {
	case FTrue:
		return FFalse{}
	case FFalse:
		return FTrue{}
	case FNot:
		return t.F
	}
	return FNot{F: f}
}

// Implies is ¬a ∨ b.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }

// Iff is (a→b) ∧ (b→a).
func Iff(a, b Formula) Formula { return And(Implies(a, b), Implies(b, a)) }

// Atom constructs an atomic constraint.
func Atom(p Pred, l, r Term) Formula { return FAtom{Pred: p, L: l, R: r} }

// EqT is the equality atom l = r.
func EqT(l, r Term) Formula { return FAtom{Pred: Eq, L: l, R: r} }

// Num is the constant term n.
func Num(n int64) Term { return TConst{Value: n} }

// V is the variable term named s.
func V(s string) Term { return TVar{Name: s} }

// Inspect walks the term or formula rooted at n in preorder: it calls f(n)
// and, while f returns true, descends into n's operands left to right, in
// field order. It is the one place that knows which operands each term and
// formula kind has; every read-only collector is built on it. Nil operands
// are skipped.
func Inspect(n Node, f func(Node) bool) {
	// The loop walks each node's last operand in place of a recursive call.
	for n != nil && f(n) {
		switch x := n.(type) {
		case TApp:
			for _, a := range x.Args {
				Inspect(a, f)
			}
			return
		case TBin:
			Inspect(x.L, f)
			n = x.R
		case FAtom:
			Inspect(x.L, f)
			n = x.R
		case FNot:
			n = x.F
		case FAnd:
			for _, g := range x.Fs {
				Inspect(g, f)
			}
			return
		case FOr:
			for _, g := range x.Fs {
				Inspect(g, f)
			}
			return
		default:
			return
		}
	}
}

// Vars returns the free variables of a formula, sorted.
func Vars(f Formula) []string {
	var out []string
	seen := map[string]bool{}
	Inspect(f, func(n Node) bool {
		if v, ok := n.(TVar); ok && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// substTerm replaces variables in t according to sub.
func substTerm(t Term, sub map[string]Term) Term {
	switch x := t.(type) {
	case TConst:
		return x
	case TVar:
		if r, ok := sub[x.Name]; ok {
			return r
		}
		return x
	case TApp:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = substTerm(a, sub)
		}
		return TApp{Func: x.Func, Args: args}
	case TBin:
		return TBin{Op: x.Op, L: substTerm(x.L, sub), R: substTerm(x.R, sub)}
	}
	return t
}

// Subst replaces variables in f according to sub.
func Subst(f Formula, sub map[string]Term) Formula {
	switch x := f.(type) {
	case FTrue, FFalse:
		return f
	case FAtom:
		return FAtom{Pred: x.Pred, L: substTerm(x.L, sub), R: substTerm(x.R, sub)}
	case FNot:
		return Not(Subst(x.F, sub))
	case FAnd:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = Subst(g, sub)
		}
		return And(fs...)
	case FOr:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = Subst(g, sub)
		}
		return Or(fs...)
	}
	return f
}

// EqualTerm reports structural equality of terms.
func EqualTerm(a, b Term) bool {
	switch x := a.(type) {
	case TConst:
		y, ok := b.(TConst)
		return ok && x.Value == y.Value
	case TVar:
		y, ok := b.(TVar)
		return ok && x.Name == y.Name
	case TApp:
		y, ok := b.(TApp)
		if !ok || x.Func != y.Func || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualTerm(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case TBin:
		y, ok := b.(TBin)
		return ok && x.Op == y.Op && EqualTerm(x.L, y.L) && EqualTerm(x.R, y.R)
	}
	return false
}

// NNF pushes negations down to atoms (an FNot survives only directly above
// an FAtom) and eliminates boolean constants where possible.
func NNF(f Formula) Formula {
	switch x := f.(type) {
	case FTrue, FFalse, FAtom:
		return f
	case FAnd:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = NNF(g)
		}
		return And(fs...)
	case FOr:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = NNF(g)
		}
		return Or(fs...)
	case FNot:
		switch y := x.F.(type) {
		case FTrue:
			return FFalse{}
		case FFalse:
			return FTrue{}
		case FNot:
			return NNF(y.F)
		case FAtom:
			return x
		case FAnd:
			fs := make([]Formula, len(y.Fs))
			for i, g := range y.Fs {
				fs[i] = NNF(Not(g))
			}
			return Or(fs...)
		case FOr:
			fs := make([]Formula, len(y.Fs))
			for i, g := range y.Fs {
				fs[i] = NNF(Not(g))
			}
			return And(fs...)
		}
	}
	return f
}

// CallInstanceKey canonicalises an application for cheap may-equal
// filtering. Only constant arguments discriminate: distinct constants can
// never be equal, whereas two different variables (or compound terms) may
// well denote the same value, so they all render as the wildcard "?".
// Compound arguments additionally collapse the whole key to "fn(*". Two
// applications of the same function can only be equal when their keys
// unify (equal, or either is the whole-key wildcard).
func CallInstanceKey(app TApp) string {
	key := app.Func + "("
	for i, a := range app.Args {
		if i > 0 {
			key += ","
		}
		switch x := a.(type) {
		case TConst:
			key += x.String()
		case TVar:
			key += "?"
		default:
			return app.Func + "(*"
		}
	}
	return key + ")"
}

// KeysUnify reports whether call keys a and b may denote equal
// applications: same function, and argument-wise either equal constants or
// a "?" (variable) on either side. The whole-key wildcard "fn(*" unifies
// with every key of the same function. Keys of different functions never
// unify.
func KeysUnify(a, b string) bool {
	if a == b {
		return true
	}
	fa, fb := keyFunc(a), keyFunc(b)
	if fa != fb {
		return false
	}
	if a[len(a)-1] == '*' || b[len(b)-1] == '*' {
		return true
	}
	argsA := strings.Split(a[len(fa)+1:len(a)-1], ",")
	argsB := strings.Split(b[len(fb)+1:len(b)-1], ",")
	if len(argsA) != len(argsB) {
		return false
	}
	for i := range argsA {
		if argsA[i] != argsB[i] && argsA[i] != "?" && argsB[i] != "?" {
			return false
		}
	}
	return true
}

func keyFunc(k string) string {
	for i := 0; i < len(k); i++ {
		if k[i] == '(' {
			return k[:i]
		}
	}
	return k
}
