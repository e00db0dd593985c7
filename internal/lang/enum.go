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
	return Rewrite(s, func(x Node) (Node, bool) {
		switch x.(type) {
		case Seq:
			return x, n <= idx
		case Stmt:
			n++
			if n-1 == idx {
				return repl, false
			}
			return x, n <= idx
		}
		return x, false // expressions hold no statements
	})
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
	return replaceNth(s, idx, repl)
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
	return replaceNth(s, idx, repl)
}

// replaceNth replaces the idx-th node of kind T in Inspect's preorder by
// repl, dropping its subtree; past idx nothing is descended into.
func replaceNth[T Node](s Stmt, idx int, repl T) Stmt {
	n := 0
	return Rewrite(s, func(x Node) (Node, bool) {
		if _, ok := x.(T); ok {
			n++
			if n-1 == idx {
				return repl, false
			}
		}
		return x, n <= idx
	})
}
