package logic

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"slices"
	"testing"
)

// nodeTypes lists every concrete term and formula type.
var nodeTypes = []Node{
	TConst{}, TVar{}, TApp{}, TBin{},
	FTrue{}, FFalse{}, FAtom{}, FNot{}, FAnd{}, FOr{},
}

// TestNodeTypesComplete holds nodeTypes to the package source: every type
// with an isTerm or isFormula method is listed, and has a node() method,
// so the contract test below sees a new kind as soon as it exists.
func TestNodeTypesComplete(t *testing.T) {
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "logic.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds, nodes []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil {
			continue
		}
		recv := fn.Recv.List[0].Type.(*ast.Ident).Name
		switch fn.Name.Name {
		case "isTerm", "isFormula":
			kinds = append(kinds, recv)
		case "node":
			nodes = append(nodes, recv)
		}
	}
	var listed []string
	for _, n := range nodeTypes {
		listed = append(listed, reflect.TypeOf(n).Name())
	}
	slices.Sort(kinds)
	slices.Sort(nodes)
	slices.Sort(listed)
	if !slices.Equal(kinds, listed) || !slices.Equal(nodes, listed) {
		t.Fatalf("types with isTerm/isFormula %v, with node() %v, listed %v", kinds, nodes, listed)
	}
}

var (
	termType    = reflect.TypeFor[Term]()
	formulaType = reflect.TypeFor[Formula]()
)

// withMarkers returns a value of n's type whose operand fields hold
// distinct marker nodes, two per slice, and the markers in field order.
// Every other field must be a plain value; a field of any other kind fails
// the test, since Inspect would not know it.
func withMarkers(t *testing.T, n Node) (Node, []Node) {
	t.Helper()
	v := reflect.New(reflect.TypeOf(n)).Elem()
	var markers []Node
	mark := func(typ reflect.Type) reflect.Value {
		k := len(markers) + 1
		var m Node
		switch typ {
		case termType:
			m = TBin{Op: Add, L: V(fmt.Sprintf("m%d", k)), R: Num(int64(k))}
		case formulaType:
			m = FAtom{Pred: Lt, L: V(fmt.Sprintf("m%d", k)), R: Num(int64(k))}
		}
		markers = append(markers, m)
		return reflect.ValueOf(m)
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch typ := f.Type(); {
		case typ == termType || typ == formulaType:
			f.Set(mark(typ))
		case typ.Kind() == reflect.Slice && (typ.Elem() == termType || typ.Elem() == formulaType):
			f.Set(reflect.MakeSlice(typ, 0, 2))
			for j := 0; j < 2; j++ {
				f.Set(reflect.Append(f, mark(typ.Elem())))
			}
		case typ.Kind() == reflect.String || typ.Kind() == reflect.Int || typ.Kind() == reflect.Int64:
		default:
			t.Fatalf("%T.%s: field of type %v is neither an operand nor a plain value", n, v.Type().Field(i).Name, typ)
		}
	}
	return v.Interface().(Node), markers
}

// TestInspectContract: for every term and formula type, Inspect visits the
// node, then each operand exactly once in field order, and a false return
// prunes the subtree — the markers' own operands are never visited.
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
