package prefilter

import (
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/logic"
)

// testLib models a dataset library: one cheap columnar accessor
// (followerCount, cost 4) and one expensive scan (sentimentScore, cost 150).
func testLib() *lang.MapLibrary {
	lib := &lang.MapLibrary{}
	lib.Define("followerCount", 4, func(args []int64) (int64, error) {
		return args[0] % 1000, nil
	})
	lib.Define("sentimentScore", 150, func(args []int64) (int64, error) {
		return (args[0] + args[1]) % 17, nil
	})
	return lib
}

func synth(t *testing.T, src string) (*Guard, *lang.Program) {
	t.Helper()
	p := lang.MustParse(src)
	g := Synthesize(p, Options{Coster: testLib(), MaxCallCost: 8})
	return g, p
}

func TestSynthesizeGatedMerge(t *testing.T) {
	// Two gated queries sharing the cheap column: the guard should collapse
	// to the weaker threshold on followerCount alone.
	g, _ := synth(t, `
func m(r) {
  vf := followerCount(r);
  if (vf >= 100 && sentimentScore(r, 1) > 5) { notify 0 true; } else { notify 0 false; }
  if (vf >= 200 && sentimentScore(r, 2) > 7) { notify 1 true; } else { notify 1 false; }
}`)
	if g.Trivial {
		t.Fatalf("expected non-trivial guard, got trivial (conds=%d)", len(g.Conds))
	}
	if n := lang.CountNodes[lang.Call](g.Test); n != 1 {
		t.Errorf("guard should make exactly one cheap call, got %d: %s", n, g.Test)
	}
	want := lang.Cmp{Op: lang.Le, L: lang.IntConst{Value: 100}, R: lang.Call{Func: "followerCount", Args: []lang.IntExpr{lang.Var{Name: "r"}}}}
	if g.Test.String() != want.String() {
		t.Errorf("guard test = %s, want %s", g.Test, want)
	}
	if g.Cost <= 0 || g.Cost > 20 {
		t.Errorf("guard cost %d outside cheap range", g.Cost)
	}
	if g.Compiled == nil || g.Prog == nil {
		t.Fatalf("non-trivial guard must carry a compiled program")
	}
}

// TestGuardNecessityBruteForce runs the merged program and the guard over a
// concrete record domain and checks soundness directly: every record any
// query notifies on must be admitted.
func TestGuardNecessityBruteForce(t *testing.T) {
	src := `
func m(r) {
  vf := followerCount(r);
  if (vf >= 100 && sentimentScore(r, 1) > 5) { notify 0 true; } else { notify 0 false; }
  if (vf >= 350 && sentimentScore(r, 2) > 2) { notify 1 true; } else { notify 1 false; }
}`
	g, p := synth(t, src)
	if g.Trivial {
		t.Fatalf("expected non-trivial guard")
	}
	lib := testLib()
	mc, err := lang.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	mrn := lang.NewRunner(mc, lib)
	grn := lang.NewRunner(g.Compiled, lib)
	admitted, notified := 0, 0
	for r := int64(0); r < 2000; r++ {
		if _, err := mrn.RunDense([]int64{r}); err != nil {
			t.Fatal(err)
		}
		any := false
		for slot := 0; slot < 2; slot++ {
			if v, ok := mrn.NoteAt(slot); ok && v {
				any = true
			}
		}
		if _, err := grn.RunDense([]int64{r}); err != nil {
			t.Fatal(err)
		}
		adm := g.Admits(grn)
		if adm {
			admitted++
		}
		if any {
			notified++
			if !adm {
				t.Fatalf("record %d notifies but guard rejects it", r)
			}
		}
	}
	if admitted == 2000 {
		t.Errorf("guard admitted everything: no filtering power")
	}
	if notified == 0 {
		t.Errorf("domain produced no notifications; test is vacuous")
	}
}

func TestTrivialOnExpensiveOnly(t *testing.T) {
	// Every notify condition needs the expensive call: no cheap necessary
	// condition exists, so synthesis must degrade to the trivial guard.
	g, _ := synth(t, `
func m(r) {
  s := sentimentScore(r, 1);
  if (s > 5) { notify 0 true; } else { notify 0 false; }
}`)
	if !g.Trivial {
		t.Fatalf("expected trivial guard, got %s", g.Test)
	}
	if _, ok := g.Formula.(logic.FTrue); !ok {
		t.Errorf("trivial guard formula must be FTrue, got %v", g.Formula)
	}
}

func TestTrivialOnLoopNotify(t *testing.T) {
	// The notify test depends on a loop-carried (havocked) variable: its
	// literal is weakened away and the site becomes unconstrained.
	g, _ := synth(t, `
func m(r) {
  i := 0;
  while (i < 10) {
    if (i == 7) { notify 0 true; }
    i := i + 1;
  }
  notify 0 false;
}`)
	if !g.Trivial {
		t.Fatalf("expected trivial guard, got %s", g.Test)
	}
}

func TestNoNotifyTrueSiteGivesFalseGuard(t *testing.T) {
	// A merged program with no notify-true site can never notify; the guard
	// is ⊥ and rejects everything — still sound, maximally selective.
	g, _ := synth(t, `
func m(r) {
  notify 0 false;
}`)
	if g.Trivial {
		t.Fatalf("expected non-trivial (false) guard")
	}
	if _, ok := g.Formula.(logic.FFalse); !ok {
		t.Fatalf("guard formula = %v, want FFalse", g.Formula)
	}
	lib := testLib()
	grn := lang.NewRunner(g.Compiled, lib)
	if _, err := grn.RunDense([]int64{1}); err != nil {
		t.Fatal(err)
	}
	if g.Admits(grn) {
		t.Errorf("false guard must reject")
	}
}

func TestIntervalMergeThresholds(t *testing.T) {
	fc := logic.TApp{Func: "followerCount", Args: []logic.Term{logic.TVar{Name: "r"}}}
	f := logic.Or(
		logic.FAtom{Pred: logic.Le, L: logic.TConst{Value: 100}, R: fc},
		logic.FAtom{Pred: logic.Lt, L: logic.TConst{Value: 49}, R: fc},
		logic.FAtom{Pred: logic.Le, L: logic.TConst{Value: 200}, R: fc},
	)
	got := intervalMerge(f)
	want := logic.FAtom{Pred: logic.Le, L: logic.TConst{Value: 50}, R: logic.Term(fc)}
	in := logic.NewInterner()
	if in.InternFormula(got) != in.InternFormula(want) {
		t.Errorf("intervalMerge = %v, want %v", got, want)
	}
}

func TestIntervalMergeCoversLine(t *testing.T) {
	fc := logic.TApp{Func: "followerCount", Args: []logic.Term{logic.TVar{Name: "r"}}}
	f := logic.Or(
		logic.FAtom{Pred: logic.Le, L: logic.TConst{Value: 10}, R: fc}, // t ≥ 10
		logic.FAtom{Pred: logic.Le, L: fc, R: logic.TConst{Value: 9}},  // t ≤ 9
	)
	if _, ok := intervalMerge(f).(logic.FTrue); !ok {
		t.Errorf("adjacent bounds cover every integer; want FTrue")
	}
}

// TestGuardZeroAllocSteadyState pins the per-record admission check to zero
// heap allocations once warm, like the merged-program VM itself.
func TestGuardZeroAllocSteadyState(t *testing.T) {
	g, _ := synth(t, `
func m(r) {
  vf := followerCount(r);
  if (vf >= 100 && sentimentScore(r, 1) > 5) { notify 0 true; } else { notify 0 false; }
}`)
	if g.Trivial {
		t.Fatalf("expected non-trivial guard")
	}
	grn := lang.NewRunner(g.Compiled, testLib())
	args := []int64{123}
	for i := 0; i < 4; i++ {
		if _, err := grn.RunDense(args); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := grn.RunDense(args); err != nil {
			t.Fatal(err)
		}
		_ = g.Admits(grn)
	})
	if avg != 0 {
		t.Errorf("guard evaluation allocates %.1f per record; want 0", avg)
	}
}
