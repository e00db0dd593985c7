// Package lang implements the imperative language of Figure 1 of
// "Consolidation of Queries with User-Defined Functions" (PLDI 2014):
// abstract syntax, a recursive-descent parser, a pretty-printer, a cost
// model, and the cost-annotated big-step interpreter of Figure 2.
//
// A program Π = λα1,…,αk. S consists of integer parameters and a statement.
// Statements are skip, integer assignments to local variables, sequencing,
// conditionals S1 ⊕e S2, while loops, and notifications notifyᵢ b. Integer
// expressions include constants, variables, the arithmetic operators
// {+,-,*}, and calls to externally provided library functions; boolean
// expressions include the comparisons {<,=,≤}, negation, and {∧,∨}.
package lang

import (
	"fmt"
	"strings"
)

// IntOp is a binary integer operator (⊙ ∈ {+,-,*} in Figure 1).
type IntOp int

// Integer operators.
const (
	Add IntOp = iota
	Sub
	Mul
)

func (op IntOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	}
	return fmt.Sprintf("IntOp(%d)", int(op))
}

// CmpOp is a comparison operator (▷ ∈ {<,=,≤} in Figure 1). Other
// comparisons (>, >=, !=) are parsed as sugar and normalised to these.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota
	Eq
	Le
)

func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Eq:
		return "=="
	case Le:
		return "<="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// BoolOp is a binary boolean connective (⋈ ∈ {∧,∨} in Figure 1).
type BoolOp int

// Boolean connectives.
const (
	And BoolOp = iota
	Or
)

func (op BoolOp) String() string {
	switch op {
	case And:
		return "&&"
	case Or:
		return "||"
	}
	return fmt.Sprintf("BoolOp(%d)", int(op))
}

// IntExpr is an integer expression (IE in Figure 1).
type IntExpr interface {
	isIntExpr()
	String() string
}

// BoolExpr is a boolean expression (BE in Figure 1).
type BoolExpr interface {
	isBoolExpr()
	String() string
}

// IntConst is an integer literal.
type IntConst struct{ Value int64 }

// Var is a reference to a program parameter or local variable.
type Var struct{ Name string }

// Call invokes an external library function f(e1,…,ek). Library functions
// are deterministic and side-effect free; the consolidation calculus treats
// them as uninterpreted.
type Call struct {
	Func string
	Args []IntExpr
}

// BinInt is e1 ⊙ e2 for ⊙ ∈ {+,-,*}.
type BinInt struct {
	Op   IntOp
	L, R IntExpr
}

func (IntConst) isIntExpr() {}
func (Var) isIntExpr()      {}
func (Call) isIntExpr()     {}
func (BinInt) isIntExpr()   {}

func (e IntConst) String() string { return fmt.Sprintf("%d", e.Value) }
func (e Var) String() string      { return e.Name }

func (e Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Func, strings.Join(args, ", "))
}

func (e BinInt) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// BoolConst is ⊤ or ⊥.
type BoolConst struct{ Value bool }

// Cmp is e1 ▷ e2 for ▷ ∈ {<,=,≤}.
type Cmp struct {
	Op   CmpOp
	L, R IntExpr
}

// Not is ¬e.
type Not struct{ E BoolExpr }

// BinBool is e1 ⋈ e2 for ⋈ ∈ {∧,∨}.
type BinBool struct {
	Op   BoolOp
	L, R BoolExpr
}

func (BoolConst) isBoolExpr() {}
func (Cmp) isBoolExpr()       {}
func (Not) isBoolExpr()       {}
func (BinBool) isBoolExpr()   {}

func (e BoolConst) String() string {
	if e.Value {
		return "true"
	}
	return "false"
}

func (e Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e Not) String() string { return fmt.Sprintf("!%s", e.E) }

func (e BinBool) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// Stmt is a statement (S in Figure 1).
type Stmt interface {
	isStmt()
	String() string
}

// Skip is the no-op statement.
type Skip struct{}

// Assign is x := e.
type Assign struct {
	Var string
	E   IntExpr
}

// Seq is S1; S2.
type Seq struct{ L, R Stmt }

// Cond is S1 ⊕e S2: executes Then when Test is true, Else otherwise.
type Cond struct {
	Test BoolExpr
	Then Stmt
	Else Stmt
}

// While is while e do S.
type While struct {
	Test BoolExpr
	Body Stmt
}

// Notify is notifyᵢ b: broadcasts the boolean constant b on behalf of the
// program identified by ID. A run must notify each identifier at most once.
type Notify struct {
	ID    int
	Value bool
}

func (Skip) isStmt()   {}
func (Assign) isStmt() {}
func (Seq) isStmt()    {}
func (Cond) isStmt()   {}
func (While) isStmt()  {}
func (Notify) isStmt() {}

func (Skip) String() string { return "skip;" }

func (s Assign) String() string { return fmt.Sprintf("%s := %s;", s.Var, s.E) }

func (s Seq) String() string { return s.L.String() + " " + s.R.String() }

func (s Cond) String() string {
	return fmt.Sprintf("if %s { %s } else { %s }", s.Test, s.Then, s.Else)
}

func (s While) String() string {
	return fmt.Sprintf("while %s { %s }", s.Test, s.Body)
}

func (s Notify) String() string {
	v := "false"
	if s.Value {
		v = "true"
	}
	return fmt.Sprintf("notify %d %s;", s.ID, v)
}

// Program is Π = λα1,…,αk. S, with a name for diagnostics.
type Program struct {
	Name   string
	Params []string
	Body   Stmt
}

func (p *Program) String() string {
	return fmt.Sprintf("func %s(%s) { %s }", p.Name, strings.Join(p.Params, ", "), p.Body)
}

// SeqOf folds a list of statements into a right-nested Seq, dropping
// explicit Skips. An empty list yields Skip.
func SeqOf(stmts ...Stmt) Stmt {
	var keep []Stmt
	for _, s := range stmts {
		if _, ok := s.(Skip); ok {
			continue
		}
		keep = append(keep, s)
	}
	if len(keep) == 0 {
		return Skip{}
	}
	out := keep[len(keep)-1]
	for i := len(keep) - 2; i >= 0; i-- {
		out = Seq{L: keep[i], R: out}
	}
	return out
}

// Flatten decomposes a statement into the list of its atomic (non-Seq)
// statements in execution order, dropping Skips. It is the closure of the
// hd/tl decomposition used by the consolidation algorithm (Figure 8).
func Flatten(s Stmt) []Stmt {
	var out []Stmt
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch t := s.(type) {
		case Skip:
		case Seq:
			walk(t.L)
			walk(t.R)
		default:
			out = append(out, s)
		}
	}
	walk(s)
	return out
}

// Size reports the number of AST nodes in a statement, a rough measure of
// consolidated-program growth.
func Size(s Stmt) int {
	switch t := s.(type) {
	case Skip, Notify:
		return 1
	case Assign:
		return 1 + sizeInt(t.E)
	case Seq:
		return Size(t.L) + Size(t.R)
	case Cond:
		return 1 + sizeBool(t.Test) + Size(t.Then) + Size(t.Else)
	case While:
		return 1 + sizeBool(t.Test) + Size(t.Body)
	}
	return 1
}

func sizeInt(e IntExpr) int {
	switch t := e.(type) {
	case IntConst, Var:
		return 1
	case Call:
		n := 1
		for _, a := range t.Args {
			n += sizeInt(a)
		}
		return n
	case BinInt:
		return 1 + sizeInt(t.L) + sizeInt(t.R)
	}
	return 1
}

func sizeBool(e BoolExpr) int {
	switch t := e.(type) {
	case BoolConst:
		return 1
	case Cmp:
		return 1 + sizeInt(t.L) + sizeInt(t.R)
	case Not:
		return 1 + sizeBool(t.E)
	case BinBool:
		return 1 + sizeBool(t.L) + sizeBool(t.R)
	}
	return 1
}

// AssignedVars returns the set of variables assigned anywhere in s.
func AssignedVars(s Stmt) map[string]bool {
	out := map[string]bool{}
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch t := s.(type) {
		case Assign:
			out[t.Var] = true
		case Seq:
			walk(t.L)
			walk(t.R)
		case Cond:
			walk(t.Then)
			walk(t.Else)
		case While:
			walk(t.Body)
		}
	}
	walk(s)
	return out
}

// UsedVars returns the set of variables read anywhere in s (in expressions).
func UsedVars(s Stmt) map[string]bool {
	out := map[string]bool{}
	var walkI func(IntExpr)
	var walkB func(BoolExpr)
	walkI = func(e IntExpr) {
		switch t := e.(type) {
		case Var:
			out[t.Name] = true
		case Call:
			for _, a := range t.Args {
				walkI(a)
			}
		case BinInt:
			walkI(t.L)
			walkI(t.R)
		}
	}
	walkB = func(e BoolExpr) {
		switch t := e.(type) {
		case Cmp:
			walkI(t.L)
			walkI(t.R)
		case Not:
			walkB(t.E)
		case BinBool:
			walkB(t.L)
			walkB(t.R)
		}
	}
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch t := s.(type) {
		case Assign:
			walkI(t.E)
		case Seq:
			walk(t.L)
			walk(t.R)
		case Cond:
			walkB(t.Test)
			walk(t.Then)
			walk(t.Else)
		case While:
			walkB(t.Test)
			walk(t.Body)
		}
	}
	walk(s)
	return out
}

// CalledFuncs returns the set of library functions invoked anywhere in s.
func CalledFuncs(s Stmt) map[string]bool {
	out := map[string]bool{}
	var walkI func(IntExpr)
	walkI = func(e IntExpr) {
		switch t := e.(type) {
		case Call:
			out[t.Func] = true
			for _, a := range t.Args {
				walkI(a)
			}
		case BinInt:
			walkI(t.L)
			walkI(t.R)
		}
	}
	var walkB func(BoolExpr)
	walkB = func(e BoolExpr) {
		switch t := e.(type) {
		case Cmp:
			walkI(t.L)
			walkI(t.R)
		case Not:
			walkB(t.E)
		case BinBool:
			walkB(t.L)
			walkB(t.R)
		}
	}
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch t := s.(type) {
		case Assign:
			walkI(t.E)
		case Seq:
			walk(t.L)
			walk(t.R)
		case Cond:
			walkB(t.Test)
			walk(t.Then)
			walk(t.Else)
		case While:
			walkB(t.Test)
			walk(t.Body)
		}
	}
	walk(s)
	return out
}

func collectCallsInt(e IntExpr, out map[string]bool) {
	switch t := e.(type) {
	case Call:
		out[t.Func] = true
		for _, a := range t.Args {
			collectCallsInt(a, out)
		}
	case BinInt:
		collectCallsInt(t.L, out)
		collectCallsInt(t.R, out)
	}
}

func collectCallsBool(e BoolExpr, out map[string]bool) {
	switch t := e.(type) {
	case Cmp:
		collectCallsInt(t.L, out)
		collectCallsInt(t.R, out)
	case Not:
		collectCallsBool(t.E, out)
	case BinBool:
		collectCallsBool(t.L, out)
		collectCallsBool(t.R, out)
	}
}

// NotifyIDs returns the set of notification identifiers appearing in s.
func NotifyIDs(s Stmt) map[int]bool {
	out := map[int]bool{}
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch t := s.(type) {
		case Notify:
			out[t.ID] = true
		case Seq:
			walk(t.L)
			walk(t.R)
		case Cond:
			walk(t.Then)
			walk(t.Else)
		case While:
			walk(t.Body)
		}
	}
	walk(s)
	return out
}

// RenameVars returns a copy of s with every variable occurrence renamed
// through f. Parameters the caller wants to keep must map to themselves.
func RenameVars(s Stmt, f func(string) string) Stmt {
	switch t := s.(type) {
	case Skip:
		return t
	case Notify:
		return t
	case Assign:
		return Assign{Var: f(t.Var), E: renameIntVars(t.E, f)}
	case Seq:
		return Seq{L: RenameVars(t.L, f), R: RenameVars(t.R, f)}
	case Cond:
		return Cond{Test: RenameBoolVars(t.Test, f), Then: RenameVars(t.Then, f), Else: RenameVars(t.Else, f)}
	case While:
		return While{Test: RenameBoolVars(t.Test, f), Body: RenameVars(t.Body, f)}
	}
	return s
}

// renameIntVars renames variable occurrences in an integer expression.
func renameIntVars(e IntExpr, f func(string) string) IntExpr {
	switch t := e.(type) {
	case IntConst:
		return t
	case Var:
		return Var{Name: f(t.Name)}
	case Call:
		args := make([]IntExpr, len(t.Args))
		for i, a := range t.Args {
			args[i] = renameIntVars(a, f)
		}
		return Call{Func: t.Func, Args: args}
	case BinInt:
		return BinInt{Op: t.Op, L: renameIntVars(t.L, f), R: renameIntVars(t.R, f)}
	}
	return e
}

// RenameBoolVars renames variable occurrences in a boolean expression.
func RenameBoolVars(e BoolExpr, f func(string) string) BoolExpr {
	switch t := e.(type) {
	case BoolConst:
		return t
	case Cmp:
		return Cmp{Op: t.Op, L: renameIntVars(t.L, f), R: renameIntVars(t.R, f)}
	case Not:
		return Not{E: RenameBoolVars(t.E, f)}
	case BinBool:
		return BinBool{Op: t.Op, L: RenameBoolVars(t.L, f), R: RenameBoolVars(t.R, f)}
	}
	return e
}

// RenameNotifyIDs returns a copy of s with every notification identifier
// renumbered through f. Used when merging programs whose identifiers clash.
func RenameNotifyIDs(s Stmt, f func(int) int) Stmt {
	switch t := s.(type) {
	case Notify:
		return Notify{ID: f(t.ID), Value: t.Value}
	case Seq:
		return Seq{L: RenameNotifyIDs(t.L, f), R: RenameNotifyIDs(t.R, f)}
	case Cond:
		return Cond{Test: t.Test, Then: RenameNotifyIDs(t.Then, f), Else: RenameNotifyIDs(t.Else, f)}
	case While:
		return While{Test: t.Test, Body: RenameNotifyIDs(t.Body, f)}
	}
	return s
}

// EqualInt reports structural equality of integer expressions.
func EqualInt(a, b IntExpr) bool {
	switch x := a.(type) {
	case IntConst:
		y, ok := b.(IntConst)
		return ok && x.Value == y.Value
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Call:
		y, ok := b.(Call)
		if !ok || x.Func != y.Func || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualInt(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case BinInt:
		y, ok := b.(BinInt)
		return ok && x.Op == y.Op && EqualInt(x.L, y.L) && EqualInt(x.R, y.R)
	}
	return false
}

// EqualBool reports structural equality of boolean expressions.
func EqualBool(a, b BoolExpr) bool {
	switch x := a.(type) {
	case BoolConst:
		y, ok := b.(BoolConst)
		return ok && x.Value == y.Value
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Op == y.Op && EqualInt(x.L, y.L) && EqualInt(x.R, y.R)
	case Not:
		y, ok := b.(Not)
		return ok && EqualBool(x.E, y.E)
	case BinBool:
		y, ok := b.(BinBool)
		return ok && x.Op == y.Op && EqualBool(x.L, y.L) && EqualBool(x.R, y.R)
	}
	return false
}

// EqualStmt reports structural equality of statements (modulo nothing: Seq
// association matters, so compare flattened forms when that is undesired).
func EqualStmt(a, b Stmt) bool {
	switch x := a.(type) {
	case Skip:
		_, ok := b.(Skip)
		return ok
	case Notify:
		y, ok := b.(Notify)
		return ok && x.ID == y.ID && x.Value == y.Value
	case Assign:
		y, ok := b.(Assign)
		return ok && x.Var == y.Var && EqualInt(x.E, y.E)
	case Seq:
		y, ok := b.(Seq)
		return ok && EqualStmt(x.L, y.L) && EqualStmt(x.R, y.R)
	case Cond:
		y, ok := b.(Cond)
		return ok && EqualBool(x.Test, y.Test) && EqualStmt(x.Then, y.Then) && EqualStmt(x.Else, y.Else)
	case While:
		y, ok := b.(While)
		return ok && EqualBool(x.Test, y.Test) && EqualStmt(x.Body, y.Body)
	}
	return false
}
