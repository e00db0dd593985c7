package lang

// AST enumeration helpers: every statement and expression node of a
// program gets a stable preorder index, so generic tooling — the oracle's
// failure shrinker in internal/oracle, most importantly — can enumerate
// reduction sites and rewrite one node at a time without knowing the
// shape of the tree. Seq nodes are pure glue and are not indexed; Cond
// and While are indexed before their children, and replacing either drops
// the whole subtree.

// CountStmtNodes reports the number of indexable statement nodes in s:
// every non-Seq node, in preorder. It is the exclusive upper bound of the
// index accepted by ReplaceStmtNode.
func CountStmtNodes(s Stmt) int {
	n := 0
	Inspect(s, func(x Node) bool {
		switch x.(type) {
		case Seq:
		case Stmt:
			n++
		default:
			return false // expressions hold no statements
		}
		return true
	})
	return n
}

// ReplaceStmtNode returns a copy of s with the idx-th statement node (in
// CountStmtNodes' preorder) replaced by repl; the replaced node's subtree
// is dropped. An out-of-range idx returns s unchanged.
func ReplaceStmtNode(s Stmt, idx int, repl Stmt) Stmt {
	n := 0
	var walk func(Stmt) Stmt
	walk = func(s Stmt) Stmt {
		switch t := s.(type) {
		case Seq:
			return Seq{L: walk(t.L), R: walk(t.R)}
		case Cond:
			if n == idx {
				n++
				return repl
			}
			n++
			return Cond{Test: t.Test, Then: walk(t.Then), Else: walk(t.Else)}
		case While:
			if n == idx {
				n++
				return repl
			}
			n++
			return While{Test: t.Test, Body: walk(t.Body)}
		default:
			if n == idx {
				n++
				return repl
			}
			n++
			return s
		}
	}
	return walk(s)
}

// CountIntExprs reports the number of integer-expression nodes in s,
// counting every subtree node (constants, variables, calls, operators) of
// every expression position in preorder — including the operands of
// comparisons inside boolean expressions.
func CountIntExprs(s Stmt) int {
	return CountNodes[IntExpr](s)
}

// ReplaceIntExpr returns a copy of s with the idx-th integer-expression
// node (in CountIntExprs' preorder) replaced by repl; the replaced
// subtree is dropped. An out-of-range idx returns s unchanged.
func ReplaceIntExpr(s Stmt, idx int, repl IntExpr) Stmt {
	n := 0
	var ri func(IntExpr) IntExpr
	ri = func(e IntExpr) IntExpr {
		if n == idx {
			n++
			return repl
		}
		n++
		switch t := e.(type) {
		case Call:
			args := make([]IntExpr, len(t.Args))
			for i, a := range t.Args {
				args[i] = ri(a)
			}
			return Call{Func: t.Func, Args: args}
		case BinInt:
			return BinInt{Op: t.Op, L: ri(t.L), R: ri(t.R)}
		}
		return e
	}
	var rb func(BoolExpr) BoolExpr
	rb = func(e BoolExpr) BoolExpr {
		switch t := e.(type) {
		case Cmp:
			return Cmp{Op: t.Op, L: ri(t.L), R: ri(t.R)}
		case Not:
			return Not{E: rb(t.E)}
		case BinBool:
			return BinBool{Op: t.Op, L: rb(t.L), R: rb(t.R)}
		}
		return e
	}
	return mapStmtExprs(s, ri, rb)
}

// CountBoolExprs reports the number of boolean-expression nodes in s,
// counting every subtree node in preorder.
func CountBoolExprs(s Stmt) int {
	return CountNodes[BoolExpr](s)
}

// ReplaceBoolExpr returns a copy of s with the idx-th boolean-expression
// node (in CountBoolExprs' preorder) replaced by repl; the replaced
// subtree is dropped. An out-of-range idx returns s unchanged.
func ReplaceBoolExpr(s Stmt, idx int, repl BoolExpr) Stmt {
	n := 0
	var rb func(BoolExpr) BoolExpr
	rb = func(e BoolExpr) BoolExpr {
		if n == idx {
			n++
			return repl
		}
		n++
		switch t := e.(type) {
		case Not:
			return Not{E: rb(t.E)}
		case BinBool:
			return BinBool{Op: t.Op, L: rb(t.L), R: rb(t.R)}
		}
		return e
	}
	return mapStmtExprs(s, func(e IntExpr) IntExpr { return e }, rb)
}

// mapStmtExprs rewrites every expression position of s through the given
// rewriters, in Inspect's order: Assign right-hand sides, Cond tests
// (then branches), While tests (then body).
func mapStmtExprs(s Stmt, ri func(IntExpr) IntExpr, rb func(BoolExpr) BoolExpr) Stmt {
	switch t := s.(type) {
	case Assign:
		return Assign{Var: t.Var, E: ri(t.E)}
	case Seq:
		return Seq{L: mapStmtExprs(t.L, ri, rb), R: mapStmtExprs(t.R, ri, rb)}
	case Cond:
		return Cond{Test: rb(t.Test), Then: mapStmtExprs(t.Then, ri, rb), Else: mapStmtExprs(t.Else, ri, rb)}
	case While:
		return While{Test: rb(t.Test), Body: mapStmtExprs(t.Body, ri, rb)}
	}
	return s
}
