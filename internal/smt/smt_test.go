package smt

import (
	"testing"

	"consolidation/internal/logic"
)

func x() logic.Term        { return logic.V("x") }
func y() logic.Term        { return logic.V("y") }
func z() logic.Term        { return logic.V("z") }
func n(v int64) logic.Term { return logic.Num(v) }

func add(a, b logic.Term) logic.Term              { return logic.TBin{Op: logic.Add, L: a, R: b} }
func sub(a, b logic.Term) logic.Term              { return logic.TBin{Op: logic.Sub, L: a, R: b} }
func mul(a, b logic.Term) logic.Term              { return logic.TBin{Op: logic.Mul, L: a, R: b} }
func app(f string, args ...logic.Term) logic.Term { return logic.TApp{Func: f, Args: args} }

func lt(a, b logic.Term) logic.Formula { return logic.Atom(logic.Lt, a, b) }
func le(a, b logic.Term) logic.Formula { return logic.Atom(logic.Le, a, b) }
func eq(a, b logic.Term) logic.Formula { return logic.Atom(logic.Eq, a, b) }

func TestBasicArithmetic(t *testing.T) {
	s := New()
	cases := []struct {
		f    logic.Formula
		want Result
	}{
		{logic.And(lt(x(), n(3)), lt(n(5), x())), Unsat},
		{logic.And(le(x(), n(3)), le(n(3), x())), Sat},
		{logic.And(eq(x(), n(3)), lt(x(), n(3))), Unsat},
		{logic.And(lt(x(), y()), lt(y(), z()), lt(z(), x())), Unsat},
		{logic.And(le(x(), y()), le(y(), x()), logic.Not(eq(x(), y()))), Unsat},
		{logic.And(lt(x(), y()), lt(y(), add(x(), n(2)))), Sat}, // y = x+1
		{logic.And(lt(x(), y()), lt(y(), add(x(), n(1)))), Unsat},
		{logic.Not(le(x(), x())), Unsat},
		{eq(add(x(), y()), add(y(), x())), Sat},
		{logic.Not(eq(add(x(), y()), add(y(), x()))), Unsat},
		{logic.And(eq(mul(n(2), x()), n(5))), Unsat}, // 2x=5 has no integer solution
		{logic.And(eq(mul(n(2), x()), n(6))), Sat},
		{logic.And(le(n(0), x()), le(x(), n(1)), logic.Not(eq(x(), n(0))), logic.Not(eq(x(), n(1)))), Unsat},
	}
	for i, c := range cases {
		if got := s.Check(c.f); got != c.want {
			t.Errorf("case %d: Check(%v) = %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestUninterpretedFunctions(t *testing.T) {
	s := New()
	fx := app("f", x())
	fy := app("f", y())
	cases := []struct {
		f    logic.Formula
		want Result
	}{
		{logic.And(eq(x(), y()), logic.Not(eq(fx, fy))), Unsat},
		{logic.And(logic.Not(eq(x(), y())), eq(fx, fy)), Sat},
		{logic.And(eq(fx, n(1)), eq(fy, n(2)), eq(x(), y())), Unsat},
		// f(f(x)) = x, f(x) = x ⊢ nothing wrong.
		{logic.And(eq(app("f", fx), x()), eq(fx, x())), Sat},
		// congruence chain: x=y ∧ f(x)≠f(y) via g: g(f(x)) vs g(f(y))
		{logic.And(eq(x(), y()), logic.Not(eq(app("g", fx), app("g", fy)))), Unsat},
		// two-argument congruence
		{logic.And(eq(x(), y()), logic.Not(eq(app("h", x(), z()), app("h", y(), z())))), Unsat},
		{logic.And(eq(x(), y()), logic.Not(eq(app("h", x(), z()), app("h", z(), y())))), Sat},
	}
	for i, c := range cases {
		if got := s.Check(c.f); got != c.want {
			t.Errorf("case %d: Check(%v) = %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestCombinedTheory(t *testing.T) {
	s := New()
	fx := app("f", x())
	cases := []struct {
		f    logic.Formula
		want Result
	}{
		// memoization pattern: v = f(α) ∧ x = α ⊨ f(x) = v
		{logic.And(
			eq(logic.V("v"), app("f", logic.V("a"))),
			eq(x(), logic.V("a")),
			logic.Not(eq(fx, logic.V("v"))),
		), Unsat},
		// arithmetic feeding congruence: x = y+1 ∧ z = y+1 ⊨ f(x) = f(z)
		{logic.And(
			eq(x(), add(y(), n(1))),
			eq(z(), add(y(), n(1))),
			logic.Not(eq(fx, app("f", z()))),
		), Unsat},
		// congruence feeding arithmetic: x = y ⊨ f(x) - f(y) = 0
		{logic.And(
			eq(x(), y()),
			logic.Not(eq(sub(fx, app("f", y())), n(0))),
		), Unsat},
		// f(x) ≤ 3 ∧ f(y) ≥ 5 ∧ x = y
		{logic.And(le(fx, n(3)), le(n(5), app("f", y())), eq(x(), y())), Unsat},
		// Nelson–Oppen: x ≤ y ∧ y ≤ x (no explicit equality) ⊨ f(x) = f(y)
		{logic.And(le(x(), y()), le(y(), x()), logic.Not(eq(fx, app("f", y())))), Unsat},
	}
	for i, c := range cases {
		if got := s.Check(c.f); got != c.want {
			t.Errorf("case %d: Check(%v) = %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestEntailment(t *testing.T) {
	s := New()
	// Ψ from Example 3: α1 > 0 ∧ x = f(α2) ∧ y = α1
	psi := logic.And(
		lt(n(0), logic.V("a1")),
		eq(x(), app("f", logic.V("a2"))),
		eq(y(), logic.V("a1")),
	)
	// Ψ ⊨ y ≥ 0
	if !s.Entails(psi, le(n(0), y())) {
		t.Error("Ψ should entail y ≥ 0")
	}
	// Ψ ⊨ f(α2) = x
	if !s.Entails(psi, eq(app("f", logic.V("a2")), x())) {
		t.Error("Ψ should entail f(α2) = x")
	}
	// Ψ ⊭ x > 0
	if s.Entails(psi, lt(n(0), x())) {
		t.Error("Ψ should not entail x > 0")
	}
	// x > α ⊨ ¬(x ≤ α) (Figure 6)
	if !s.Entails(lt(logic.V("al"), x()), logic.Not(le(x(), logic.V("al")))) {
		t.Error("x > α should entail ¬(x ≤ α)")
	}
}

func TestBooleanStructure(t *testing.T) {
	s := New()
	cases := []struct {
		f    logic.Formula
		want Result
	}{
		{logic.Or(lt(x(), n(0)), le(n(0), x())), Sat},
		{logic.And(logic.Or(lt(x(), n(0)), lt(x(), n(10))), le(n(20), x())), Unsat},
		{logic.Not(logic.Or(le(x(), n(5)), le(n(5), x()))), Unsat},
		{logic.Iff(le(x(), y()), logic.Not(lt(y(), x()))), Sat},
		{logic.Not(logic.Iff(le(x(), y()), logic.Not(lt(y(), x())))), Unsat}, // valid iff
		{logic.FTrue{}, Sat},
		{logic.FFalse{}, Unsat},
		{logic.And(), Sat},
		{logic.Or(), Unsat},
	}
	for i, c := range cases {
		if got := s.Check(c.f); got != c.want {
			t.Errorf("case %d: Check(%v) = %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestNonlinearConservative(t *testing.T) {
	s := New()
	// x*y = y*x must be valid (canonicalised product).
	if got := s.Check(logic.Not(eq(mul(x(), y()), mul(y(), x())))); got != Unsat {
		t.Errorf("x*y = y*x should be valid, got %v", got)
	}
	// x*x ≥ 0 is true but beyond the linear fragment: must NOT be Unsat
	// when negated (conservative Sat/Unknown is acceptable).
	if got := s.Check(lt(mul(x(), x()), n(0))); got == Unsat {
		t.Errorf("x*x < 0: solver over-claims Unsat in nonlinear fragment")
	}
	// Constant folding inside products stays linear: 3*x = x*3.
	if got := s.Check(logic.Not(eq(mul(n(3), x()), mul(x(), n(3))))); got != Unsat {
		t.Errorf("3x = x3 should be valid, got %v", got)
	}
}

func TestCacheAndStats(t *testing.T) {
	s := New()
	f := logic.And(lt(x(), n(3)), lt(n(5), x()))
	if s.Check(f) != Unsat {
		t.Fatal("expected unsat")
	}
	q := s.Stats.Queries
	if s.Check(f) != Unsat {
		t.Fatal("expected unsat from cache")
	}
	if s.Stats.Queries != q+1 || s.Stats.CacheHits == 0 {
		t.Errorf("cache not used: %+v", s.Stats)
	}
}

// TestAgainstBruteForce cross-validates the solver on random small formulas
// against exhaustive model enumeration: whenever the solver says Unsat, no
// enumerated model may satisfy the formula, and whenever it says Sat on a
// function-free formula, enumeration must find a model.
func TestAgainstBruteForce(t *testing.T) {
	terms := []logic.Term{
		x(), y(), n(0), n(1), n(2),
		add(x(), n(1)), sub(y(), x()), mul(n(2), y()),
	}
	var atoms []logic.Formula
	for i, a := range terms {
		for j, b := range terms {
			if i < j {
				atoms = append(atoms, lt(a, b), eq(a, b))
			}
		}
	}
	s := New()
	rng := uint64(12345)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(mod))
	}
	for trial := 0; trial < 150; trial++ {
		// Random conjunction of 3 literals, sometimes with a disjunction.
		var fs []logic.Formula
		for k := 0; k < 3; k++ {
			a := atoms[next(len(atoms))]
			if next(2) == 0 {
				a = logic.Not(a)
			}
			fs = append(fs, a)
		}
		f := logic.And(fs...)
		if next(3) == 0 {
			f = logic.Or(f, atoms[next(len(atoms))])
		}
		got := s.Check(f)
		// Enumerate models over a small domain.
		found := false
		for xv := int64(-4); xv <= 4 && !found; xv++ {
			for yv := int64(-4); yv <= 4 && !found; yv++ {
				m := logic.Model{Vars: map[string]int64{"x": xv, "y": yv}}
				if m.Eval(f) {
					found = true
				}
			}
		}
		if got == Unsat && found {
			t.Fatalf("trial %d: solver says Unsat but %v has a model", trial, f)
		}
		if got == Sat && !found {
			// The enumeration domain [-4,4] may simply be too small; widen.
			wide := false
			for xv := int64(-12); xv <= 12 && !wide; xv++ {
				for yv := int64(-12); yv <= 12 && !wide; yv++ {
					m := logic.Model{Vars: map[string]int64{"x": xv, "y": yv}}
					if m.Eval(f) {
						wide = true
					}
				}
			}
			if !wide {
				t.Fatalf("trial %d: solver says Sat but no model in [-12,12]²: %v", trial, f)
			}
		}
	}
}

func TestSimplexDirect(t *testing.T) {
	// x + y ≤ 2, x ≥ 2, y ≥ 1 infeasible.
	s := new(simplex)
	s.reset(2, 1000, 4, new(int))
	sl := s.addSlack([]sterm{{x: 0, c: qOne}, {x: 1, c: qOne}})
	if !s.assertUpper(sl, qInt(2)) || !s.assertLower(0, qInt(2)) || !s.assertLower(1, qInt(1)) {
		// immediate conflicts are fine too
		return
	}
	feasible, over := s.check()
	if feasible || over {
		t.Fatalf("expected infeasible, got feasible=%v over=%v", feasible, over)
	}
}
