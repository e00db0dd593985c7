package lang

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"slices"
	"testing"
)

// nodeTypes lists every concrete syntax-tree node type.
var nodeTypes = []Node{
	IntConst{}, Var{}, Call{}, BinInt{},
	BoolConst{}, Cmp{}, Not{}, BinBool{},
	Skip{}, Assign{}, Seq{}, Cond{}, While{}, Notify{},
}

// TestNodeTypesComplete holds nodeTypes to the package source: every type
// with a node() method is listed, so the contract tests below see a new
// node kind as soon as it exists.
func TestNodeTypesComplete(t *testing.T) {
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "node" && fn.Recv != nil {
			declared = append(declared, fn.Recv.List[0].Type.(*ast.Ident).Name)
		}
	}
	var listed []string
	for _, n := range nodeTypes {
		listed = append(listed, reflect.TypeOf(n).Name())
	}
	slices.Sort(declared)
	slices.Sort(listed)
	if !slices.Equal(declared, listed) {
		t.Fatalf("node types with a node() method %v, listed %v", declared, listed)
	}
}

var (
	stmtType     = reflect.TypeFor[Stmt]()
	intExprType  = reflect.TypeFor[IntExpr]()
	boolExprType = reflect.TypeFor[BoolExpr]()
)

// withMarkers returns a value of n's type whose child fields hold distinct
// marker nodes, two per []IntExpr, and the markers in field order. Every
// other field must be a plain value, which gets a non-zero value so that a
// rewrite dropping it shows; a field of any other kind fails the test,
// since Inspect and Rewrite would not know it.
func withMarkers(t *testing.T, n Node) (Node, []Node) {
	t.Helper()
	v := reflect.New(reflect.TypeOf(n)).Elem()
	var markers []Node
	k := 0
	mark := func(typ reflect.Type) reflect.Value {
		k++
		var m Node
		switch typ {
		case stmtType:
			m = Assign{Var: fmt.Sprintf("m%d", k), E: IntConst{Value: int64(k)}}
		case intExprType:
			m = BinInt{Op: Add, L: Var{Name: fmt.Sprintf("m%d", k)}, R: IntConst{Value: int64(k)}}
		case boolExprType:
			m = Cmp{Op: Lt, L: Var{Name: fmt.Sprintf("m%d", k)}, R: IntConst{Value: int64(k)}}
		}
		markers = append(markers, m)
		return reflect.ValueOf(m)
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch typ := f.Type(); {
		case typ == stmtType || typ == intExprType || typ == boolExprType:
			f.Set(mark(typ))
		case typ == reflect.TypeFor[[]IntExpr]():
			f.Set(reflect.ValueOf([]IntExpr{}))
			for j := 0; j < 2; j++ {
				f.Set(reflect.Append(f, mark(intExprType)))
			}
		case typ.Kind() == reflect.String:
			f.SetString("p")
		case typ.Kind() == reflect.Bool:
			f.SetBool(true)
		case typ.Kind() == reflect.Int || typ.Kind() == reflect.Int64:
			f.SetInt(1)
		default:
			t.Fatalf("%T.%s: field of type %v is neither a child nor a plain value", n, v.Type().Field(i).Name, typ)
		}
	}
	return v.Interface().(Node), markers
}

// TestInspectContract: for every node type, Inspect visits the node, then
// each child exactly once in field order, and a false return prunes the
// subtree — the markers' own children are never visited.
func TestInspectContract(t *testing.T) {
	for _, zero := range nodeTypes {
		root, markers := withMarkers(t, zero)
		var got []string
		Inspect(root, func(n Node) bool {
			got = append(got, n.String())
			return len(got) == 1 // descend from the root only
		})
		want := []string{root.String()}
		for _, m := range markers {
			want = append(want, m.String())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%T: visited %q, want %q", zero, got, want)
		}
		visits := 0
		Inspect(root, func(Node) bool { visits++; return false })
		if visits != 1 {
			t.Errorf("%T: false at the root visited %d nodes, want 1", zero, visits)
		}
	}
}

// TestInspectCountReplaceAgree: on enumProg and on every node type filled
// with markers, Count* counts the nodes Inspect visits of its kind, and
// Replace* with index i rewrites the i-th of them in Inspect's preorder.
func TestInspectCountReplaceAgree(t *testing.T) {
	inputs := map[string]Stmt{"enumProg": enumProg().Body}
	for _, zero := range nodeTypes {
		root, _ := withMarkers(t, zero)
		name := reflect.TypeOf(zero).Name()
		switch r := root.(type) {
		case Stmt:
			inputs[name] = r
		case IntExpr:
			inputs[name] = Assign{Var: "r", E: r}
		case BoolExpr:
			inputs[name] = While{Test: r, Body: Skip{}}
		}
	}
	kinds := []struct {
		name    string
		repl    Node
		count   func(Stmt) int
		replace func(Stmt, int, Node) Stmt
		is      func(Node) bool
	}{
		{"stmt", Assign{Var: "sentinel", E: IntConst{}}, CountStmtNodes,
			func(s Stmt, i int, r Node) Stmt { return ReplaceStmtNode(s, i, r.(Stmt)) },
			func(n Node) bool { _, seq := n.(Seq); return !seq && isStmtNode(n) }},
		{"int", Var{Name: "sentinel"}, CountIntExprs,
			func(s Stmt, i int, r Node) Stmt { return ReplaceIntExpr(s, i, r.(IntExpr)) },
			func(n Node) bool { _, ok := n.(IntExpr); return ok }},
		{"bool", Cmp{Op: Eq, L: Var{Name: "sentinel"}, R: IntConst{}}, CountBoolExprs,
			func(s Stmt, i int, r Node) Stmt { return ReplaceBoolExpr(s, i, r.(BoolExpr)) },
			func(n Node) bool { _, ok := n.(BoolExpr); return ok }},
	}
	for name, s := range inputs {
		for _, kind := range kinds {
			preorder := func(s Stmt) []Node {
				var out []Node
				Inspect(s, func(n Node) bool {
					if kind.is(n) {
						out = append(out, n)
					}
					return true
				})
				return out
			}
			nodes := preorder(s)
			if c := kind.count(s); c != len(nodes) {
				t.Errorf("%s: %s count %d, Inspect visits %d", name, kind.name, c, len(nodes))
				continue
			}
			for i := range nodes {
				after := preorder(kind.replace(s, i, kind.repl))
				if i >= len(after) || after[i].String() != kind.repl.String() {
					t.Errorf("%s: %s index %d did not rewrite the %d-th node %s", name, kind.name, i, i, nodes[i])
				}
			}
			if !EqualStmt(kind.replace(s, len(nodes), kind.repl), s) {
				t.Errorf("%s: out-of-range %s index changed the tree", name, kind.name)
			}
		}
	}
}

// preorder lists the nodes Inspect visits under n.
func preorder(n Node) []string {
	var out []string
	Inspect(n, func(x Node) bool {
		out = append(out, x.String())
		return true
	})
	return out
}

// setChild returns a copy of n with its child old replaced by repl.
func setChild(n, old, repl Node) Node {
	v := reflect.New(reflect.TypeOf(n)).Elem()
	v.Set(reflect.ValueOf(n))
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if args, ok := f.Interface().([]IntExpr); ok {
			args = slices.Clone(args)
			for j := range args {
				if reflect.DeepEqual(args[j], old) {
					args[j] = repl.(IntExpr)
				}
			}
			f.Set(reflect.ValueOf(args))
		} else if f.Kind() == reflect.Interface && reflect.DeepEqual(f.Interface(), old) {
			f.Set(reflect.ValueOf(repl))
		}
	}
	return v.Interface().(Node)
}

// TestRewriteContract: for every node type, Rewrite calls f in Inspect's
// order; the identity rewrite returns an equal node; replacing one marker
// changes exactly that field; and a replacement returned with false is
// used as is, its children unvisited, while one returned with true has its
// own children (not the original's) rewritten.
func TestRewriteContract(t *testing.T) {
	identity := func(n Node) (Node, bool) { return n, true }
	for _, zero := range nodeTypes {
		root, markers := withMarkers(t, zero)
		if got := Rewrite(root, identity); !reflect.DeepEqual(got, root) {
			t.Errorf("%T: identity rewrite gave %#v, want %#v", zero, got, root)
		}
		var calls []string
		Rewrite(root, func(n Node) (Node, bool) {
			calls = append(calls, n.String())
			return n, true
		})
		if want := preorder(root); !slices.Equal(calls, want) {
			t.Errorf("%T: f called on %q, Inspect visits %q", zero, calls, want)
		}
		for i, m := range markers {
			var repl Node
			switch m.(type) {
			case Stmt:
				repl = Notify{ID: 99, Value: true}
			case IntExpr:
				repl = Call{Func: "r", Args: []IntExpr{Var{Name: "x"}}}
			case BoolExpr:
				repl = Not{E: BoolConst{Value: true}}
			}
			calls = calls[:0]
			got := Rewrite(root, func(n Node) (Node, bool) {
				calls = append(calls, n.String())
				if reflect.DeepEqual(n, m) {
					return repl, false
				}
				return n, true
			})
			if want := setChild(root, m, repl); !reflect.DeepEqual(got, want) {
				t.Errorf("%T: replacing marker %d gave %s, want %s", zero, i, got, want)
			}
			for _, c := range preorder(m)[1:] {
				if slices.Contains(calls, c) {
					t.Errorf("%T: replacing marker %d with false still visited its child %s", zero, i, c)
				}
			}
		}
		// At the root: false returns the replacement untouched after one
		// call; true rewrites the replacement's children, not root's.
		other, otherMarkers := withMarkers(t, Cond{})
		calls = calls[:0]
		got := Rewrite[Node](root, func(n Node) (Node, bool) {
			calls = append(calls, n.String())
			if len(calls) == 1 {
				return other, false
			}
			return n, true
		})
		if len(calls) != 1 || !reflect.DeepEqual(got, other) {
			t.Errorf("%T: false at the root made %d calls and gave %s", zero, len(calls), got)
		}
		calls = calls[:0]
		Rewrite[Node](root, func(n Node) (Node, bool) {
			calls = append(calls, n.String())
			if len(calls) == 1 {
				return other, true
			}
			return n, false
		})
		want := []string{root.String()}
		for _, m := range otherMarkers {
			want = append(want, m.String())
		}
		if !slices.Equal(calls, want) {
			t.Errorf("%T: true with a replacement visited %q, want %q", zero, calls, want)
		}
	}
}

// TestRewriteSeqSpine: a long right-nested Seq chain, with a nested chain
// on its left and a nil child, is rebuilt in Inspect's order, and a Seq
// replaced midway ends the spine there.
func TestRewriteSeqSpine(t *testing.T) {
	var stmts []Stmt
	for i := 0; i < 1000; i++ {
		stmts = append(stmts, Assign{Var: fmt.Sprintf("v%d", i), E: IntConst{Value: int64(i)}})
	}
	chain := SeqOf(stmts...).(Seq)
	s := Seq{L: SeqOf(stmts[:3]...), R: Seq{L: chain, R: Seq{L: Notify{ID: 1}, R: nil}}}
	identity := func(n Node) (Node, bool) { return n, true }
	if got := Rewrite[Stmt](s, identity); !reflect.DeepEqual(got, Stmt(s)) {
		t.Fatalf("identity rewrite of a Seq spine changed it")
	}
	label := func(n Node) string {
		if _, seq := n.(Seq); seq {
			return "seq" // printing every suffix of the chain is quadratic
		}
		return n.String()
	}
	var calls, visits []string
	Rewrite[Stmt](s, func(n Node) (Node, bool) {
		calls = append(calls, label(n))
		return n, true
	})
	Inspect(s, func(n Node) bool {
		visits = append(visits, label(n))
		return true
	})
	if !slices.Equal(calls, visits) {
		t.Fatalf("Seq spine: f called in an order other than Inspect's")
	}
	cut := chain.R.(Seq).R // the Seq holding v2 onwards
	got := Rewrite[Stmt](chain, func(n Node) (Node, bool) {
		if reflect.DeepEqual(n, cut) {
			return Skip{}, false
		}
		return n, true
	})
	if want := (Seq{L: stmts[0], R: Seq{L: stmts[1], R: Skip{}}}); !EqualStmt(got, want) {
		t.Fatalf("replacing a spine Seq gave %s, want %s", got, want)
	}
}

// TestRewriteWrongKindPanics: a replacement that does not fit its field is
// a programmer error, not a silent nil.
func TestRewriteWrongKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a Stmt returned for an IntExpr field did not panic")
		}
	}()
	Rewrite[Stmt](Assign{Var: "x", E: Var{Name: "y"}}, func(n Node) (Node, bool) {
		if _, ok := n.(Var); ok {
			return Skip{}, false
		}
		return n, true
	})
}
