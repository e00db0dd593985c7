package smt

import (
	"math/rand"
	"testing"

	"consolidation/internal/logic"
)

// tlit interns an atom into in and wraps it as a theory literal.
func tlit(in *logic.Interner, a logic.FAtom, pos bool) theoryLit {
	return litOfAtomNode(in, in.InternFormula(a), pos)
}

// TestTheoryConjunctionsAgainstEnumeration cross-validates the combined
// theory checker on random conjunctions over integers and one
// uninterpreted function, using exhaustive enumeration of variable values
// and a deterministic function interpretation.
func TestTheoryConjunctionsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	vars := []string{"x", "y"}
	mkTerm := func(depth int) logic.Term {
		var rec func(d int) logic.Term
		rec = func(d int) logic.Term {
			switch rng.Intn(5) {
			case 0:
				return logic.Num(int64(rng.Intn(7) - 3))
			case 1:
				return logic.V(vars[rng.Intn(len(vars))])
			case 2:
				if d > 0 {
					return logic.TApp{Func: "f", Args: []logic.Term{rec(d - 1)}}
				}
				return logic.V("x")
			default:
				if d > 0 {
					op := []logic.TermOp{logic.Add, logic.Sub}[rng.Intn(2)]
					return logic.TBin{Op: op, L: rec(d - 1), R: rec(d - 1)}
				}
				return logic.Num(1)
			}
		}
		return rec(depth)
	}
	// The deterministic interpretation enumeration uses for f.
	fInterp := func(_ string, args []int64) int64 { return (args[0]*3+1)%5 - 2 }

	for trial := 0; trial < 200; trial++ {
		in := logic.NewInterner()
		var lits []theoryLit
		var f logic.Formula = logic.FTrue{}
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			atom := logic.FAtom{
				Pred: []logic.Pred{logic.Lt, logic.Eq, logic.Le}[rng.Intn(3)],
				L:    mkTerm(2),
				R:    mkTerm(2),
			}
			pos := rng.Intn(2) == 0
			lits = append(lits, tlit(in, atom, pos))
			if pos {
				f = logic.And(f, atom)
			} else {
				f = logic.And(f, logic.Not(atom))
			}
		}
		got := New().checkTheory(in, lits)

		// Enumerate models with the fixed f interpretation. A found model
		// proves satisfiability under at least one interpretation; the
		// checker must then not claim unsat.
		found := false
		for xv := int64(-5); xv <= 5 && !found; xv++ {
			for yv := int64(-5); yv <= 5 && !found; yv++ {
				m := logic.Model{Vars: map[string]int64{"x": xv, "y": yv}, Funcs: fInterp}
				if m.Eval(f) {
					found = true
				}
			}
		}
		if got == theoryUnsat && found {
			t.Fatalf("trial %d: theory says unsat but a model exists: %v", trial, f)
		}
	}
}

// TestTheoryDistinctConstants ensures constant disequality is wired into
// congruence closure: f(1) and f(2) may differ, 1 = 2 may not hold.
func TestTheoryDistinctConstants(t *testing.T) {
	one := logic.Num(1)
	two := logic.Num(2)
	in := logic.NewInterner()
	lits := []theoryLit{tlit(in, logic.FAtom{Pred: logic.Eq, L: one, R: two}, true)}
	if got := New().checkTheory(in, lits); got != theoryUnsat {
		t.Fatalf("1 = 2 should be unsat, got %v", got)
	}
	f1 := logic.TApp{Func: "f", Args: []logic.Term{one}}
	f2 := logic.TApp{Func: "f", Args: []logic.Term{two}}
	lits = []theoryLit{tlit(in, logic.FAtom{Pred: logic.Eq, L: f1, R: f2}, false)}
	if got := New().checkTheory(in, lits); got != theorySat {
		t.Fatalf("f(1) ≠ f(2) should be sat, got %v", got)
	}
}

// TestTheoryDeepCongruence exercises congruence through nested arithmetic:
// x = y ⊨ f(g(x+1)) = f(g(y+1)).
func TestTheoryDeepCongruence(t *testing.T) {
	wrap := func(v string) logic.Term {
		inner := logic.TBin{Op: logic.Add, L: logic.V(v), R: logic.Num(1)}
		return logic.TApp{Func: "f", Args: []logic.Term{
			logic.TApp{Func: "g", Args: []logic.Term{inner}},
		}}
	}
	in := logic.NewInterner()
	lits := []theoryLit{
		tlit(in, logic.FAtom{Pred: logic.Eq, L: logic.V("x"), R: logic.V("y")}, true),
		tlit(in, logic.FAtom{Pred: logic.Eq, L: wrap("x"), R: wrap("y")}, false),
	}
	if got := New().checkTheory(in, lits); got != theoryUnsat {
		t.Fatalf("deep congruence failed: %v", got)
	}
}
