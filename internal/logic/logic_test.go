package logic

import (
	"testing"
	"testing/quick"

	"consolidation/internal/lang"
)

func TestSmartConstructors(t *testing.T) {
	x := V("x")
	a := Atom(Lt, x, Num(3))
	cases := []struct {
		got, want string
	}{
		{And().String(), "true"},
		{Or().String(), "false"},
		{And(FTrue{}, a).String(), a.String()},
		{And(FFalse{}, a).String(), "false"},
		{Or(FTrue{}, a).String(), "true"},
		{Or(FFalse{}, a).String(), a.String()},
		{Not(FTrue{}).String(), "false"},
		{Not(Not(a)).String(), a.String()},
		{And(And(a, a), a).String(), And(a, a, a).String()}, // flattening
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: %s != %s", i, c.got, c.want)
		}
	}
}

func TestNNF(t *testing.T) {
	x, y := V("x"), V("y")
	a := Atom(Lt, x, y)
	b := Atom(Eq, x, Num(0))
	f := Not(And(a, Or(b, Not(a))))
	nnf := NNF(f)
	// No negation above a non-atom.
	var check func(Formula, bool) bool
	check = func(f Formula, negated bool) bool {
		switch t := f.(type) {
		case FNot:
			_, isAtom := t.F.(FAtom)
			return isAtom
		case FAnd:
			for _, g := range t.Fs {
				if !check(g, false) {
					return false
				}
			}
		case FOr:
			for _, g := range t.Fs {
				if !check(g, false) {
					return false
				}
			}
		}
		return true
	}
	if !check(nnf, false) {
		t.Fatalf("NNF left a composite negation: %v", nnf)
	}
	// NNF preserves truth under arbitrary models (property-based).
	err := quick.Check(func(xv, yv int8) bool {
		m := Model{Vars: map[string]int64{"x": int64(xv), "y": int64(yv)}}
		return m.Eval(f) == m.Eval(nnf)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubst(t *testing.T) {
	f := Atom(Le, TBin{Op: Add, L: V("x"), R: Num(1)}, TApp{Func: "f", Args: []Term{V("x"), V("y")}})
	g := Subst(f, map[string]Term{"x": Num(5)})
	if g.String() != "((5 + 1) <= f(5,y))" {
		t.Fatalf("Subst = %v", g)
	}
	// Original unchanged.
	if f.String() != "((x + 1) <= f(x,y))" {
		t.Fatalf("Subst mutated input: %v", f)
	}
}

func TestVarsAndApps(t *testing.T) {
	f := And(
		Atom(Lt, V("b"), V("a")),
		EqT(TApp{Func: "g", Args: []Term{TApp{Func: "h", Args: []Term{V("c")}}}}, Num(0)),
	)
	vs := Vars(f)
	if len(vs) != 3 || vs[0] != "a" || vs[1] != "b" || vs[2] != "c" {
		t.Fatalf("Vars = %v", vs)
	}
}

func TestEqualTerm(t *testing.T) {
	a := TBin{Op: Mul, L: V("x"), R: Num(2)}
	b := TBin{Op: Mul, L: V("x"), R: Num(2)}
	c := TBin{Op: Mul, L: Num(2), R: V("x")}
	if !EqualTerm(a, b) || EqualTerm(a, c) {
		t.Fatal("EqualTerm misbehaves")
	}
}

func TestTranslationAgreesWithInterpreter(t *testing.T) {
	// Evaluating a lang expression with the interpreter and evaluating its
	// logic translation under a matching model must agree.
	lib := &lang.MapLibrary{}
	lib.Define("f", 1, func(a []int64) (int64, error) { return 3*a[0] - 1, nil })
	progs := []string{
		`func p(a, b) { x := a * 3 - b + f(a); }`,
		`func p(a, b) { x := f(f(b)) - (a + a); }`,
	}
	for _, src := range progs {
		e := lang.MustParse(src).Body.(lang.Assign).E
		term := FromIntExpr(e, nil)
		for av := int64(-3); av <= 3; av++ {
			for bv := int64(-2); bv <= 2; bv++ {
				in := lang.NewInterp(lib)
				res, err := in.Run(lang.MustParse(src), []int64{av, bv})
				if err != nil {
					t.Fatal(err)
				}
				m := Model{
					Vars:  map[string]int64{"a": av, "b": bv},
					Funcs: func(_ string, args []int64) int64 { return 3*args[0] - 1 },
				}
				if got := m.EvalTerm(term); got != res.Env["x"] {
					t.Fatalf("%s at (%d,%d): term %d, interp %d", src, av, bv, got, res.Env["x"])
				}
			}
		}
	}
}

func TestBoolTranslationAgrees(t *testing.T) {
	src := `func p(a, b) { notify 1 ((a < b || a == 3) && !(b <= 0)); }`
	e := lang.MustParse(src).Body.(lang.Cond).Test
	f := FromBoolExpr(e, nil)
	lib := &lang.MapLibrary{}
	for av := int64(-2); av <= 4; av++ {
		for bv := int64(-2); bv <= 4; bv++ {
			in := lang.NewInterp(lib)
			res, err := in.Run(lang.MustParse(src), []int64{av, bv})
			if err != nil {
				t.Fatal(err)
			}
			m := Model{Vars: map[string]int64{"a": av, "b": bv}}
			if m.Eval(f) != res.Notes[1] {
				t.Fatalf("disagreement at (%d,%d)", av, bv)
			}
		}
	}
}

func TestCallInstanceKeys(t *testing.T) {
	app := func(fn string, args ...Term) TApp { return TApp{Func: fn, Args: args} }
	cases := []struct {
		a, b  TApp
		unify bool
	}{
		{app("f", Num(3)), app("f", Num(3)), true},
		{app("f", Num(3)), app("f", Num(4)), false},
		{app("f", V("x")), app("f", Num(4)), true}, // variable may equal 4
		{app("f", V("x")), app("f", V("y")), true}, // variables may be equal
		{app("f", Num(3)), app("g", Num(3)), false},
		{app("f", V("r"), Num(3)), app("f", V("r"), Num(7)), false},
		{app("f", TBin{Op: Add, L: V("x"), R: Num(1)}), app("f", Num(9)), true}, // wildcard
	}
	for i, c := range cases {
		ka, kb := CallInstanceKey(c.a), CallInstanceKey(c.b)
		if got := KeysUnify(ka, kb); got != c.unify {
			t.Errorf("case %d: KeysUnify(%s, %s) = %v, want %v", i, ka, kb, got, c.unify)
		}
		if KeysUnify(ka, kb) != KeysUnify(kb, ka) {
			t.Errorf("case %d: KeysUnify not symmetric", i)
		}
	}
}
