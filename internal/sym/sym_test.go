package sym

import (
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/smt"
)

func TestAssignVersioning(t *testing.T) {
	c := NewContext(smt.New())
	// x := a + 1; x := x + 1  ⟹  Ψ ⊨ x = a + 2
	c.AssumeAssign("x", lang.MustParseStmt("x := a + 1;").(lang.Assign).E)
	c.AssumeAssign("x", lang.MustParseStmt("x := x + 1;").(lang.Assign).E)
	goal := logic.EqT(c.CurTerm("x"), logic.TBin{Op: logic.Add, L: logic.V("a"), R: logic.Num(2)})
	if !c.Entails(goal) {
		t.Fatalf("Ψ = %v should entail x = a + 2", c.Formula())
	}
	// The old fact about version 1 is retained, not clobbered.
	if c.CurName("x") != "x%2" {
		t.Fatalf("CurName = %s", c.CurName("x"))
	}
}

func TestMemoizationAcrossPrograms(t *testing.T) {
	// Ψ: y = f(a); then f(a) should be provably equal to y.
	c := NewContext(smt.New())
	c.AssumeAssign("y", lang.MustParseStmt("y := f(a);").(lang.Assign).E)
	fa := c.TranslateInt(lang.MustParseStmt("z := f(a);").(lang.Assign).E)
	if !c.Entails(logic.EqT(fa, c.CurTerm("y"))) {
		t.Fatal("Ψ should entail f(a) = y")
	}
}

func TestBranchAssumptions(t *testing.T) {
	c := NewContext(smt.New())
	c.AssumeBool(lang.MustParse(`func t(x) { notify 1 (x > 5); }`).Body.(lang.Cond).Test)
	if !c.EntailsBool(lang.MustParse(`func t(x) { notify 1 (x > 3); }`).Body.(lang.Cond).Test) {
		t.Fatal("x > 5 should entail x > 3")
	}
	if c.EntailsBool(lang.MustParse(`func t(x) { notify 1 (x > 7); }`).Body.(lang.Cond).Test) {
		t.Fatal("x > 5 should not entail x > 7")
	}
}

func TestHavocForgets(t *testing.T) {
	c := NewContext(smt.New())
	c.AssumeAssign("x", lang.IntConst{Value: 3})
	if !c.Entails(logic.EqT(c.CurTerm("x"), logic.Num(3))) {
		t.Fatal("should know x = 3")
	}
	c.HavocSet(map[string]bool{"x": true})
	if c.Entails(logic.EqT(c.CurTerm("x"), logic.Num(3))) {
		t.Fatal("havoc must forget x = 3")
	}
}

func TestApplyStmtLoop(t *testing.T) {
	c := NewContext(smt.New())
	s := lang.MustParseStmt(`i := 0; while (i < 10) { i := i + 1; }`)
	c.ApplyStmt(s)
	// After the loop, ¬(i < 10) i.e. i ≥ 10 must hold.
	if !c.Entails(logic.Atom(logic.Le, logic.Num(10), c.CurTerm("i"))) {
		t.Fatalf("Ψ = %v should entail i ≥ 10", c.Formula())
	}
	// But i = 10 must NOT be entailed (the havoc forgot the precise count).
	if c.Entails(logic.EqT(c.CurTerm("i"), logic.Num(10))) {
		t.Fatal("post-loop context should not pin i")
	}
}

func TestApplyStmtCondHavocs(t *testing.T) {
	c := NewContext(smt.New())
	c.AssumeAssign("x", lang.IntConst{Value: 1})
	c.ApplyStmt(lang.MustParseStmt(`if (a < 0) { x := 5; } else { skip; }`))
	if c.Entails(logic.EqT(c.CurTerm("x"), logic.Num(1))) {
		t.Fatal("conditional assignment must havoc x")
	}
}

// TestSPSoundness: if an environment agrees with the initial context and we
// execute straight-line code concretely, the final environment must agree
// with the strongest postcondition (Ψ ∧ current-values is satisfiable).
func TestSPSoundness(t *testing.T) {
	lib := &lang.MapLibrary{}
	lib.Define("f", 10, func(a []int64) (int64, error) { return 3*a[0] - 1, nil })
	progs := []string{
		`func p(a) { x := a + 2; y := x * 3; x := y - a; }`,
		`func p(a) { x := f(a); y := f(a) + x; }`,
		`func p(a) { x := 0 - a; y := x * x; }`,
	}
	for _, src := range progs {
		prog := lang.MustParse(src)
		in := lang.NewInterp(lib)
		res, err := in.Run(prog, []int64{7})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		solver := smt.New()
		c := NewContext(solver)
		c.ApplyStmt(prog.Body)
		// Conjoin current-version values from the concrete run; f is given
		// the same interpretation by asserting its concrete applications...
		// here it suffices that the combination is satisfiable.
		fs := []logic.Formula{c.Formula()}
		for v, val := range res.Env {
			fs = append(fs, logic.EqT(c.CurTerm(v), logic.Num(val)))
		}
		if r := solver.Check(logic.And(fs...)); r == smt.Unsat {
			t.Errorf("%s: concrete run disagrees with sp: %v", src, logic.And(fs...))
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewContext(smt.New())
	c.AssumeAssign("x", lang.IntConst{Value: 1})
	d := c.Clone()
	d.AssumeAssign("x", lang.IntConst{Value: 2})
	if c.CurName("x") == d.CurName("x") {
		t.Fatal("clone shares version state")
	}
	if !c.Entails(logic.EqT(c.CurTerm("x"), logic.Num(1))) {
		t.Fatal("original context changed by clone mutation")
	}
}

func TestTrim(t *testing.T) {
	c := NewContext(smt.New())
	c.MaxConjuncts = 4
	for i := 0; i < 10; i++ {
		c.AssumeAssign("x", lang.IntConst{Value: int64(i)})
	}
	if len(c.Conjuncts()) != 4 {
		t.Fatalf("trim failed: %d conjuncts", len(c.Conjuncts()))
	}
	// Trimming weakens but keeps the latest fact.
	if !c.Entails(logic.EqT(c.CurTerm("x"), logic.Num(9))) {
		t.Fatal("latest fact lost by trim")
	}
}

func TestDefinitionIndex(t *testing.T) {
	c := NewContext(smt.New())
	c.AssumeAssign("v", lang.MustParseStmt("v := price(r);").(lang.Assign).E)

	// Exact lookup through the index.
	term := c.TranslateInt(lang.MustParseStmt("w := price(r);").(lang.Assign).E)
	if name, ok := c.LookupDefID(c.Interner().InternTerm(term)); !ok || name != "v" {
		t.Fatalf("LookupDefID = %q, %v", name, ok)
	}
	// CurDef returns the recorded right-hand side.
	if rhs, ok := c.CurDef("v"); !ok || rhs.String() != "price(r)" {
		t.Fatalf("CurDef = %v, %v", rhs, ok)
	}
	// Function index sees the definition.
	if defs := c.DefsByFunc("price"); len(defs) != 1 || defs[0].Var != "v" {
		t.Fatalf("DefsByFunc = %v", defs)
	}
	// Overwriting v invalidates all of it.
	c.AssumeAssign("v", lang.IntConst{Value: 0})
	if _, ok := c.LookupDefID(c.Interner().InternTerm(term)); ok {
		t.Fatal("stale LookupDefID after overwrite")
	}
	if rhs, ok := c.CurDef("v"); !ok || rhs.String() != "0" {
		t.Fatalf("CurDef after overwrite = %v, %v", rhs, ok)
	}
	if defs := c.DefsByFunc("price"); len(defs) != 0 {
		t.Fatalf("DefsByFunc after overwrite = %v", defs)
	}
}

// TestOffsetIndex: a definition v := g ± c with g an application is
// indexed under g with its offset, in every written form, and dies with v.
func TestOffsetIndex(t *testing.T) {
	c := NewContext(smt.New())
	expr := func(src string) lang.IntExpr { return lang.MustParseStmt("w := " + src + ";").(lang.Assign).E }
	price := c.Interner().InternTerm(c.TranslateInt(expr("price(r)")))
	for _, tc := range []struct {
		rhs string
		off int64
		ok  bool
	}{
		{"price(r) + 2", 2, true},
		{"price(r) - 1", -1, true},
		{"3 + price(r)", 3, true},
		{"1 - price(r)", 0, false},
		{"price(r) + r", 0, false},
		{"price(r)", 0, false}, // the exact index holds it
	} {
		c.AssumeAssign("v", expr(tc.rhs))
		v, off, ok := c.LookupOffsetID(price)
		if tc.ok != ok || ok && (v != "v" || off != tc.off) {
			t.Errorf("v := %s: LookupOffsetID = %q, %d, %v; want v, %d, %v", tc.rhs, v, off, ok, tc.off, tc.ok)
		}
	}
	c.AssumeAssign("v", expr("price(r) + 1"))
	clone := c.Clone()
	c.HavocSet(map[string]bool{"v": true})
	if _, _, ok := c.LookupOffsetID(price); ok {
		t.Error("havoc should invalidate the offset definition")
	}
	if _, off, ok := clone.LookupOffsetID(price); !ok || off != 1 {
		t.Errorf("clone lost the offset definition: %d, %v", off, ok)
	}
}

func TestHavocInvalidatesDefs(t *testing.T) {
	c := NewContext(smt.New())
	c.AssumeAssign("v", lang.MustParseStmt("v := price(r);").(lang.Assign).E)
	c.HavocSet(map[string]bool{"v": true})
	term := c.TranslateInt(lang.MustParseStmt("w := price(r);").(lang.Assign).E)
	if _, ok := c.LookupDefID(c.Interner().InternTerm(term)); ok {
		t.Fatal("havoc should invalidate the definition")
	}
}

// TestRelevanceFilterStaysSound: dropping unrelated conjuncts must not
// change entailment answers that depend only on related ones, and must
// still allow congruence chains through definitions.
func TestRelevanceFilterStaysSound(t *testing.T) {
	c := NewContext(smt.New())
	// A pile of unrelated facts about other queries.
	for i := 0; i < 40; i++ {
		c.AssumeAssign("u"+lang.Var{Name: ""}.Name+string(rune('a'+i%26))+string(rune('0'+i/26)),
			lang.Call{Func: "other", Args: []lang.IntExpr{lang.Var{Name: "r"}, lang.IntConst{Value: int64(i)}}})
	}
	// The facts that matter: v = price(r); w = v + 1.
	c.AssumeAssign("v", lang.MustParseStmt("v := price(r);").(lang.Assign).E)
	c.AssumeAssign("w", lang.MustParseStmt("w := v + 1;").(lang.Assign).E)
	// w - 1 = price(r) must still be entailed through the chain.
	goal := logic.EqT(
		logic.TBin{Op: logic.Sub, L: c.CurTerm("w"), R: logic.Num(1)},
		c.TranslateInt(lang.MustParseStmt("z := price(r);").(lang.Assign).E),
	)
	if !c.Entails(goal) {
		t.Fatal("relevance filter broke a needed chain")
	}
}

// TestRefutesValidatesAssignments: Refutes prunes only with a genuine
// counterexample of the goal's cone. An assignment that leaves a cone
// variable or application unassigned, violates a cone conjunct, reads a
// function-table point with two values, or satisfies the goal refutes
// nothing, and no check calls the solver.
func TestRefutesValidatesAssignments(t *testing.T) {
	solver := smt.New()
	c := NewContext(solver)
	c.AssumeAssign("x", lang.MustParseStmt("x := a + 1;").(lang.Assign).E)
	c.AssumeAssign("y", lang.MustParseStmt("y := f(a);").(lang.Assign).E)
	goal := lang.MustParse(`func t(x, y) { notify 1 (x + y <= 0); }`).Body.(lang.Cond).Test
	x, y := c.CurName("x"), c.CurName("y")
	model := func(vars map[string]int64, table ...logic.Point) *logic.Model {
		return &logic.Model{Vars: vars, Table: table}
	}
	f0 := func(v int64) logic.Point { return logic.Point{Func: "f", Args: []int64{0}, Value: v} }
	cases := []struct {
		name string
		m    *logic.Model
		want bool
	}{
		{"counterexample", model(map[string]int64{"a": 0, x: 1, y: 3}, f0(3)), true},
		{"unassigned variable", model(map[string]int64{x: 1, y: 3}, f0(3)), false},
		{"unassigned application", model(map[string]int64{"a": 0, x: 1, y: 3}), false},
		{"violated conjunct", model(map[string]int64{"a": 0, x: 2, y: 3}, f0(3)), false},
		{"two values at one point", model(map[string]int64{"a": 0, x: 1, y: 3}, f0(3), f0(5)), false},
		{"goal holds", model(map[string]int64{"a": -9, x: -8, y: 3}, logic.Point{Func: "f", Args: []int64{-9}, Value: 3}), false},
	}
	q0 := solver.Stats.Queries
	for _, tc := range cases {
		if got := c.Refutes(goal, []*logic.Model{tc.m}); got != tc.want {
			t.Errorf("%s: Refutes = %v, want %v", tc.name, got, tc.want)
		}
	}
	if c.Refutes(goal, nil) {
		t.Error("no assignment refutes nothing")
	}
	if q := solver.Stats.Queries - q0; q != 0 {
		t.Errorf("Refutes issued %d solver queries", q)
	}
	if ok, _ := c.EntailsModel(goal); ok {
		t.Fatal("the goal is refuted above, so it cannot be entailed")
	}
}

// TestEntailsModelNeverWithEntailment: an entailed goal comes without an
// assignment, on the stateless and the incremental path alike.
func TestEntailsModelNeverWithEntailment(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		c := NewContext(smt.New())
		if incremental {
			sc := smt.NewSolvingContext()
			sc.BeginRun(c.Solver())
			c.UseSolvingContext(sc)
		}
		c.AssumeBool(lang.MustParse(`func t(x) { notify 1 (x > 5); }`).Body.(lang.Cond).Test)
		ok, m := c.EntailsModel(lang.MustParse(`func t(x) { notify 1 (x > 3); }`).Body.(lang.Cond).Test)
		if !ok || m != nil {
			t.Errorf("incremental=%v: entailed goal answered (%v, %v)", incremental, ok, m)
		}
		notGoal := lang.MustParse(`func t(x) { notify 1 (x > 7); }`).Body.(lang.Cond).Test
		ok, m = c.EntailsModel(notGoal)
		if ok || m == nil {
			t.Fatalf("incremental=%v: x > 5 ⊭ x > 7 answered (%v, %v), want a counterexample", incremental, ok, m)
		}
		if !c.Refutes(notGoal, []*logic.Model{m}) {
			t.Errorf("incremental=%v: the solver's own counterexample %v does not refute the goal", incremental, m.Vars)
		}
	}
}
