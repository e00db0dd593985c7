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
// other field must be a plain value; a field of any other kind fails the
// test, since Inspect would not know it.
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
		case typ.Kind() == reflect.String || typ.Kind() == reflect.Bool || typ.Kind() == reflect.Int || typ.Kind() == reflect.Int64:
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
