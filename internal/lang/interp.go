package lang

import (
	"fmt"
	"sort"
)

// Library provides the externally defined functions a program may call.
// Per the application domain's "well-behaved UDF" guidelines (Section 3),
// library functions must be deterministic and side-effect free.
type Library interface {
	// Call evaluates f(args) and returns its value. eval(f(c1,…,ck)) in the
	// operational semantics; its cost is FuncCost(name).
	Call(name string, args []int64) (int64, error)
	FuncCoster
}

// MapLibrary is a Library backed by explicit function definitions. The zero
// value is an empty library.
type MapLibrary struct {
	funcs map[string]mapFunc
}

type mapFunc struct {
	fn   func(args []int64) (int64, error)
	cost int64
}

// Define registers a function with the given abstract cost.
func (l *MapLibrary) Define(name string, cost int64, fn func(args []int64) (int64, error)) {
	if l.funcs == nil {
		l.funcs = map[string]mapFunc{}
	}
	l.funcs[name] = mapFunc{fn: fn, cost: cost}
}

// Call implements Library.
func (l *MapLibrary) Call(name string, args []int64) (int64, error) {
	f, ok := l.funcs[name]
	if !ok {
		return 0, fmt.Errorf("lang: undefined library function %q", name)
	}
	return f.fn(args)
}

// FuncCost implements FuncCoster.
func (l *MapLibrary) FuncCost(name string) (int64, bool) {
	f, ok := l.funcs[name]
	if !ok {
		return 0, false
	}
	return f.cost, true
}

// Resolve implements DirectCaller.
func (l *MapLibrary) Resolve(name string) (func(args []int64) (int64, error), bool) {
	f, ok := l.funcs[name]
	if !ok {
		return nil, false
	}
	return f.fn, true
}

// Env maps variables (parameters and locals) to integer values.
type Env map[string]int64

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Notifications is the notification environment N of Figure 2: a map from
// program identifiers to the boolean each program broadcast.
type Notifications map[int]bool

// String renders notifications deterministically for diagnostics.
func (n Notifications) String() string {
	ids := make([]int, 0, len(n))
	for id := range n {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s := "{"
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d↦%v", id, n[id])
	}
	return s + "}"
}

// Equal reports whether two notification environments agree exactly.
func (n Notifications) Equal(m Notifications) bool {
	if len(n) != len(m) {
		return false
	}
	for id, v := range n {
		w, ok := m[id]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// Result is the outcome of running a program: the final environment, the
// notification environment, the total abstract cost, and per-notification
// latency (the cost accumulated when each notification was broadcast —
// the metric the paper's latency discussion in Section 8 is about; both
// the paper's implementation and this one broadcast results as soon as
// they are computed).
type Result struct {
	Env       Env
	Notes     Notifications
	Cost      int64
	NoteCosts map[int]int64
}

// Interp evaluates programs under a library and cost model, enforcing the
// semantics of Figure 2: cost accounting per operation and at-most-one
// notification per identifier (N1 ⊎ N2 is a disjoint union).
type Interp struct {
	Lib Library
	CM  *CostModel
	// MaxSteps bounds the loop-test evaluations of a run — every iteration
	// plus one per loop exit — to catch accidental divergence; 0 means no
	// bound.
	MaxSteps int64

	steps     int64
	cost      int64
	notes     Notifications
	noteCosts map[int]int64
	env       Env
}

// NewInterp returns an interpreter with the default cost model.
func NewInterp(lib Library) *Interp {
	return &Interp{Lib: lib, CM: DefaultCostModel()}
}

// Run executes program p with the given argument values.
func (in *Interp) Run(p *Program, args []int64) (*Result, error) {
	if len(args) != len(p.Params) {
		return nil, fmt.Errorf("lang: program %s expects %d arguments, got %d", p.Name, len(p.Params), len(args))
	}
	env := make(Env, len(args)+8)
	for i, name := range p.Params {
		env[name] = args[i]
	}
	in.steps = 0
	in.cost = 0
	in.notes = Notifications{}
	in.noteCosts = map[int]int64{}
	in.env = env
	if err := in.exec(p.Body); err != nil {
		return nil, err
	}
	return &Result{Env: env, Notes: in.notes, Cost: in.cost, NoteCosts: in.noteCosts}, nil
}

// RunStmt executes a bare statement in the given environment, mutating it.
func (in *Interp) RunStmt(s Stmt, env Env) (Notifications, int64, error) {
	in.steps = 0
	in.cost = 0
	in.notes = Notifications{}
	in.noteCosts = map[int]int64{}
	in.env = env
	if err := in.exec(s); err != nil {
		return nil, 0, err
	}
	return in.notes, in.cost, nil
}

func (in *Interp) exec(s Stmt) error {
	switch t := s.(type) {
	case Skip:
		return nil
	case Assign:
		v, err := in.evalInt(t.E)
		if err != nil {
			return err
		}
		in.env[t.Var] = v
		in.cost += in.CM.Assign
		return nil
	case Seq:
		if err := in.exec(t.L); err != nil {
			return err
		}
		return in.exec(t.R)
	case Notify:
		if _, dup := in.notes[t.ID]; dup {
			return fmt.Errorf("lang: duplicate notification for id %d", t.ID)
		}
		in.cost += in.CM.Notify
		in.notes[t.ID] = t.Value
		in.noteCosts[t.ID] = in.cost
		return nil
	case Cond:
		b, err := in.evalBool(t.Test)
		if err != nil {
			return err
		}
		in.cost += in.CM.Branch
		if b {
			return in.exec(t.Then)
		}
		return in.exec(t.Else)
	case While:
		for {
			in.steps++
			if in.MaxSteps > 0 && in.steps > in.MaxSteps {
				return fmt.Errorf("lang: loop exceeded %d iterations", in.MaxSteps)
			}
			b, err := in.evalBool(t.Test)
			if err != nil {
				return err
			}
			in.cost += in.CM.Branch
			if !b {
				return nil
			}
			if err := in.exec(t.Body); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

func (in *Interp) evalInt(e IntExpr) (int64, error) {
	switch t := e.(type) {
	case IntConst:
		in.cost += in.CM.IntConst
		return t.Value, nil
	case Var:
		v, ok := in.env[t.Name]
		if !ok {
			return 0, fmt.Errorf("lang: unbound variable %q", t.Name)
		}
		in.cost += in.CM.Var
		return v, nil
	case Call:
		args := make([]int64, len(t.Args))
		for i, a := range t.Args {
			v, err := in.evalInt(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		v, err := in.Lib.Call(t.Func, args)
		if err != nil {
			return 0, err
		}
		if c, ok := in.Lib.FuncCost(t.Func); ok {
			in.cost += c
		} else {
			in.cost += in.CM.CallBase
		}
		return v, nil
	case BinInt:
		l, err := in.evalInt(t.L)
		if err != nil {
			return 0, err
		}
		r, err := in.evalInt(t.R)
		if err != nil {
			return 0, err
		}
		in.cost += in.CM.Arith
		switch t.Op {
		case Add:
			return l + r, nil
		case Sub:
			return l - r, nil
		default:
			return l * r, nil
		}
	}
	return 0, fmt.Errorf("lang: unknown int expression %T", e)
}

func (in *Interp) evalBool(e BoolExpr) (bool, error) {
	switch t := e.(type) {
	case BoolConst:
		in.cost += in.CM.BoolConst
		return t.Value, nil
	case Cmp:
		l, err := in.evalInt(t.L)
		if err != nil {
			return false, err
		}
		r, err := in.evalInt(t.R)
		if err != nil {
			return false, err
		}
		in.cost += in.CM.Cmp
		switch t.Op {
		case Lt:
			return l < r, nil
		case Eq:
			return l == r, nil
		default:
			return l <= r, nil
		}
	case Not:
		v, err := in.evalBool(t.E)
		if err != nil {
			return false, err
		}
		in.cost += in.CM.Neg
		return !v, nil
	case BinBool:
		// The semantics of Figure 2 evaluates both operands (no short
		// circuit), so consolidated and original programs are charged alike.
		l, err := in.evalBool(t.L)
		if err != nil {
			return false, err
		}
		r, err := in.evalBool(t.R)
		if err != nil {
			return false, err
		}
		in.cost += in.CM.BoolOp
		if t.Op == And {
			return l && r, nil
		}
		return l || r, nil
	}
	return false, fmt.Errorf("lang: unknown bool expression %T", e)
}
