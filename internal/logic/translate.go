package logic

import (
	"math"
	"slices"

	"consolidation/internal/lang"
)

// FromIntExpr translates a source-language integer expression to a term.
// rename maps each program variable to its logical term (an SSA version in
// symbolic contexts); nil translates every variable to a same-named TVar.
func FromIntExpr(e lang.IntExpr, rename func(string) Term) Term {
	switch t := e.(type) {
	case lang.IntConst:
		return TConst{Value: t.Value}
	case lang.Var:
		if rename != nil {
			return rename(t.Name)
		}
		return TVar{Name: t.Name}
	case lang.Call:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = FromIntExpr(a, rename)
		}
		return TApp{Func: t.Func, Args: args}
	case lang.BinInt:
		var op TermOp
		switch t.Op {
		case lang.Add:
			op = Add
		case lang.Sub:
			op = Sub
		case lang.Mul:
			op = Mul
		}
		return TBin{Op: op, L: FromIntExpr(t.L, rename), R: FromIntExpr(t.R, rename)}
	}
	panic("logic: unknown int expression")
}

// FromBoolExpr translates a source-language boolean expression to a formula
// under the same variable renaming as FromIntExpr.
func FromBoolExpr(e lang.BoolExpr, rename func(string) Term) Formula {
	switch t := e.(type) {
	case lang.BoolConst:
		if t.Value {
			return FTrue{}
		}
		return FFalse{}
	case lang.Cmp:
		var p Pred
		switch t.Op {
		case lang.Lt:
			p = Lt
		case lang.Eq:
			p = Eq
		case lang.Le:
			p = Le
		}
		return FAtom{Pred: p, L: FromIntExpr(t.L, rename), R: FromIntExpr(t.R, rename)}
	case lang.Not:
		return Not(FromBoolExpr(t.E, rename))
	case lang.BinBool:
		l := FromBoolExpr(t.L, rename)
		r := FromBoolExpr(t.R, rename)
		if t.Op == lang.And {
			return And(l, r)
		}
		return Or(l, r)
	}
	panic("logic: unknown bool expression")
}

// Model assigns values to variables and provides an interpretation for
// uninterpreted functions. It is used by the brute-force reference checker,
// by tests of SMT soundness, and as the assignment a satisfiable theory
// check ended on (Vars plus Table, read by Decide).
type Model struct {
	Vars map[string]int64
	// Funcs interprets an application; it must be deterministic in
	// (name, args). When nil, a fixed pseudo-random interpretation is used.
	Funcs func(name string, args []int64) int64
	// Table lists the application points an assignment fixes. Decide reads
	// it instead of Funcs. Nothing keeps its entries consistent: two entries
	// may give one point two values.
	Table []Point
}

// Point is one function-table entry: Func(Args) = Value.
type Point struct {
	Func  string
	Args  []int64
	Value int64
}

// Decide evaluates f exactly under Vars and Table. ok is false when f
// reads a variable Vars lacks, applies a function at a point Table lacks
// or gives two values, or when arithmetic leaves int64 on the way; the
// value is then meaningless.
func (m *Model) Decide(f Formula) (value, ok bool) {
	switch x := f.(type) {
	case FTrue:
		return true, true
	case FFalse:
		return false, true
	case FAtom:
		l, okl := m.decideTerm(x.L)
		r, okr := m.decideTerm(x.R)
		if !okl || !okr {
			return false, false
		}
		switch x.Pred {
		case Lt:
			return l < r, true
		case Eq:
			return l == r, true
		case Le:
			return l <= r, true
		}
	case FNot:
		v, ok := m.Decide(x.F)
		return !v, ok
	case FAnd:
		return m.decideAll(x.Fs, true)
	case FOr:
		return m.decideAll(x.Fs, false)
	}
	return false, false
}

// decideAll folds a conjunction (and) or disjunction. Every operand must be
// decided, so that the verdict never rests on evaluation order.
func (m *Model) decideAll(fs []Formula, and bool) (value, ok bool) {
	out := and
	for _, g := range fs {
		v, ok := m.Decide(g)
		if !ok {
			return false, false
		}
		if v != and {
			out = !and
		}
	}
	return out, true
}

func (m *Model) decideTerm(t Term) (int64, bool) {
	switch x := t.(type) {
	case TConst:
		return x.Value, true
	case TVar:
		v, ok := m.Vars[x.Name]
		return v, ok
	case TApp:
		args := make([]int64, len(x.Args))
		for i, a := range x.Args {
			v, ok := m.decideTerm(a)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		return m.lookup(x.Func, args)
	case TBin:
		l, okl := m.decideTerm(x.L)
		r, okr := m.decideTerm(x.R)
		if !okl || !okr {
			return 0, false
		}
		switch x.Op {
		case Add:
			s := l + r
			return s, (s > l) == (r > 0)
		case Sub:
			d := l - r
			return d, (d < l) == (r > 0)
		case Mul:
			if l == 0 || r == 0 {
				return 0, true
			}
			p := l * r
			return p, p/r == l && !(r == -1 && l == math.MinInt64)
		}
	}
	return 0, false
}

// lookup reads fn(args) from Table: exactly one value must be listed.
func (m *Model) lookup(fn string, args []int64) (int64, bool) {
	var v int64
	found := false
	for _, p := range m.Table {
		if p.Func != fn || !slices.Equal(p.Args, args) {
			continue
		}
		if found && p.Value != v {
			return 0, false
		}
		v, found = p.Value, true
	}
	return v, found
}

// EvalTerm evaluates a term under the model.
func (m *Model) EvalTerm(t Term) int64 {
	switch x := t.(type) {
	case TConst:
		return x.Value
	case TVar:
		return m.Vars[x.Name]
	case TApp:
		args := make([]int64, len(x.Args))
		for i, a := range x.Args {
			args[i] = m.EvalTerm(a)
		}
		if m.Funcs != nil {
			return m.Funcs(x.Func, args)
		}
		return defaultInterp(x.Func, args)
	case TBin:
		l := m.EvalTerm(x.L)
		r := m.EvalTerm(x.R)
		switch x.Op {
		case Add:
			return l + r
		case Sub:
			return l - r
		case Mul:
			return l * r
		}
	}
	return 0
}

// Eval evaluates a formula under the model.
func (m *Model) Eval(f Formula) bool {
	switch x := f.(type) {
	case FTrue:
		return true
	case FFalse:
		return false
	case FAtom:
		l := m.EvalTerm(x.L)
		r := m.EvalTerm(x.R)
		switch x.Pred {
		case Lt:
			return l < r
		case Eq:
			return l == r
		case Le:
			return l <= r
		}
	case FNot:
		return !m.Eval(x.F)
	case FAnd:
		for _, g := range x.Fs {
			if !m.Eval(g) {
				return false
			}
		}
		return true
	case FOr:
		for _, g := range x.Fs {
			if m.Eval(g) {
				return true
			}
		}
		return false
	}
	return false
}

// defaultInterp is a deterministic pseudo-random interpretation of
// uninterpreted functions, used when a Model carries none.
func defaultInterp(name string, args []int64) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	for _, a := range args {
		h ^= uint64(a)
		h *= 1099511628211
	}
	return int64(h%17) - 8
}
