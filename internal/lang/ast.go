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

// Node is any node of the syntax tree: every IntExpr, BoolExpr and Stmt is
// one. Inspect walks it.
type Node interface {
	node()
	String() string
}

// IntExpr is an integer expression (IE in Figure 1).
type IntExpr interface {
	Node
	isIntExpr()
}

// BoolExpr is a boolean expression (BE in Figure 1).
type BoolExpr interface {
	Node
	isBoolExpr()
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

func (IntConst) node() {}
func (Var) node()      {}
func (Call) node()     {}
func (BinInt) node()   {}

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

func (BoolConst) node() {}
func (Cmp) node()       {}
func (Not) node()       {}
func (BinBool) node()   {}

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
	Node
	isStmt()
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

func (Skip) node()   {}
func (Assign) node() {}
func (Seq) node()    {}
func (Cond) node()   {}
func (While) node()  {}
func (Notify) node() {}

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
	Inspect(s, func(n Node) bool {
		switch n.(type) {
		case Seq:
			return true
		case Skip:
		default:
			out = append(out, n.(Stmt))
		}
		return false
	})
	return out
}

// Inspect walks the tree rooted at n in preorder: it calls f(n) and, while
// f returns true, descends into n's children left to right, in field order.
// It is the one place that knows which children each node kind has; every
// read-only collector below is built on it. Nil children are skipped.
func Inspect(n Node, f func(Node) bool) {
	// The loop walks each node's last child in place of a recursive call,
	// so a right-nested Seq chain costs one frame, not one per statement.
	for n != nil && f(n) {
		switch t := n.(type) {
		case Assign:
			n = t.E
		case Seq:
			Inspect(t.L, f)
			n = t.R
		case Cond:
			Inspect(t.Test, f)
			Inspect(t.Then, f)
			n = t.Else
		case While:
			Inspect(t.Test, f)
			n = t.Body
		case Call:
			for _, a := range t.Args {
				Inspect(a, f)
			}
			return
		case BinInt:
			Inspect(t.L, f)
			n = t.R
		case Cmp:
			Inspect(t.L, f)
			n = t.R
		case Not:
			n = t.E
		case BinBool:
			Inspect(t.L, f)
			n = t.R
		default:
			return
		}
	}
}

// isStmtNode reports whether n is a statement; collectors that only look
// at statements return it from their Inspect callback to skip expressions.
func isStmtNode(n Node) bool {
	_, ok := n.(Stmt)
	return ok
}

// Size reports the number of AST nodes in n, a rough measure of
// consolidated-program growth. Seq nodes are glue and do not count.
func Size(n Node) int {
	k := 0
	Inspect(n, func(x Node) bool {
		if _, seq := x.(Seq); !seq {
			k++
		}
		return true
	})
	return k
}

// CountNodes reports the number of nodes of type T in n: CountNodes[Call]
// counts call sites, CountNodes[IntExpr] integer-expression nodes.
func CountNodes[T Node](n Node) int {
	k := 0
	Inspect(n, func(x Node) bool {
		if _, ok := x.(T); ok {
			k++
		}
		return true
	})
	return k
}

// AssignedVars returns the set of variables assigned anywhere in s.
func AssignedVars(s Stmt) map[string]bool {
	out := map[string]bool{}
	Inspect(s, func(n Node) bool {
		if a, ok := n.(Assign); ok {
			out[a.Var] = true
			return false // its children are expressions
		}
		return isStmtNode(n)
	})
	return out
}

// UsedVars returns the set of variables read anywhere in n (in expressions).
func UsedVars(n Node) map[string]bool {
	out := map[string]bool{}
	AddUsedVars(n, out)
	return out
}

// AddUsedVars adds the variables read anywhere in n to set.
func AddUsedVars(n Node, set map[string]bool) {
	Inspect(n, func(x Node) bool {
		if v, ok := x.(Var); ok {
			set[v.Name] = true
		}
		return true
	})
}

// CalledFuncs returns the set of library functions invoked anywhere in s.
func CalledFuncs(s Stmt) map[string]bool {
	out := map[string]bool{}
	Inspect(s, func(n Node) bool {
		if c, ok := n.(Call); ok {
			out[c.Func] = true
		}
		return true
	})
	return out
}

// NotifyIDs returns the set of notification identifiers appearing in s.
func NotifyIDs(s Stmt) map[int]bool {
	out := map[int]bool{}
	Inspect(s, func(n Node) bool {
		if t, ok := n.(Notify); ok {
			out[t.ID] = true
		}
		return isStmtNode(n)
	})
	return out
}

// Rewrite rebuilds the tree rooted at n in Inspect's preorder. It calls
// f(x) on each node x; f returns x's replacement and whether to rebuild the
// replacement's children, which then happens in Inspect's field order. A
// replacement returned with false is used as is: its children are not
// visited. It is the one place that knows how to rebuild each node kind
// from its children; every rewriter below is built on it. Nil children
// stay nil, and a replacement of the wrong kind for its field panics.
func Rewrite[T Node](n T, f func(Node) (Node, bool)) T {
	return as[T](rewrite(n, f))
}

// as converts a rewritten node back to its field's kind; nil stays nil.
func as[T Node](n Node) T {
	if n == nil {
		var zero T
		return zero
	}
	return n.(T)
}

func rewrite(n Node, f func(Node) (Node, bool)) Node {
	// A right-nested Seq chain is rebuilt in a loop, not one frame per
	// statement: the spine's rebuilt left children are kept until its last
	// right child is done, then the chain is reassembled from the end.
	var spine []Stmt
	for n != nil {
		x, descend := f(n)
		if !descend {
			n = x
			break
		}
		if s, ok := x.(Seq); ok {
			spine = append(spine, Rewrite(s.L, f))
			n = s.R
			continue
		}
		n = rebuild(x, f)
		break
	}
	for i := len(spine) - 1; i >= 0; i-- {
		n = Seq{L: spine[i], R: as[Stmt](n)}
	}
	return n
}

// rebuild returns a copy of the non-Seq node n with each child rewritten.
func rebuild(n Node, f func(Node) (Node, bool)) Node {
	switch t := n.(type) {
	case Assign:
		return Assign{Var: t.Var, E: Rewrite(t.E, f)}
	case Cond:
		return Cond{Test: Rewrite(t.Test, f), Then: Rewrite(t.Then, f), Else: Rewrite(t.Else, f)}
	case While:
		return While{Test: Rewrite(t.Test, f), Body: Rewrite(t.Body, f)}
	case Call:
		args := make([]IntExpr, len(t.Args))
		for i, a := range t.Args {
			args[i] = Rewrite(a, f)
		}
		return Call{Func: t.Func, Args: args}
	case BinInt:
		return BinInt{Op: t.Op, L: Rewrite(t.L, f), R: Rewrite(t.R, f)}
	case Cmp:
		return Cmp{Op: t.Op, L: Rewrite(t.L, f), R: Rewrite(t.R, f)}
	case Not:
		return Not{E: Rewrite(t.E, f)}
	case BinBool:
		return BinBool{Op: t.Op, L: Rewrite(t.L, f), R: Rewrite(t.R, f)}
	}
	return n
}

// RenameVars returns a copy of s with every variable occurrence renamed
// through f. Parameters the caller wants to keep must map to themselves.
func RenameVars(s Stmt, f func(string) string) Stmt {
	return Rewrite(s, func(n Node) (Node, bool) {
		switch t := n.(type) {
		case Assign:
			return Assign{Var: f(t.Var), E: t.E}, true
		case Var:
			return Var{Name: f(t.Name)}, false
		}
		return n, true
	})
}

// RenameNotifyIDs returns a copy of s with every notification identifier
// renumbered through f. Used when merging programs whose identifiers clash.
func RenameNotifyIDs(s Stmt, f func(int) int) Stmt {
	return Rewrite(s, func(n Node) (Node, bool) {
		switch t := n.(type) {
		case Notify:
			return Notify{ID: f(t.ID), Value: t.Value}, false
		case Seq, Cond, While:
			return n, true
		}
		return n, false // expressions and other statements hold no notify
	})
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
