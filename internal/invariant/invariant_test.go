package invariant

import (
	"fmt"
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

func hasInvariant(inv []lang.BoolExpr, want string) bool {
	target := lang.MustParse("func t(x) { notify 1 (" + want + "); }").Body.(lang.Cond).Test
	for _, f := range inv {
		if lang.EqualBool(f, target) {
			return true
		}
	}
	return false
}

// TestExample6 reproduces the invariant of the paper's Example 6: fusing
//
//	P1: i := α; while (i > 0) { i := i-1; t1 := f(i); x := x+t1 }
//	P2: j := α-1; while (j ≥ 0) { t2 := f(j); y := y+t2; j := j-1 }
//
// the fused loop while (i > 0 ∧ j ≥ 0) { body1; body2 } has the invariant
// j = i - 1, i.e. j - i = -1.
func TestExample6(t *testing.T) {
	ctx := sym.NewContext(smt.New())
	// Precondition Ψ: i = α ∧ x = 0 ∧ j = α − 1 ∧ y = α.
	ctx.AssumeAssign("i", lang.MustParseStmt("i := al;").(lang.Assign).E)
	ctx.AssumeAssign("x", lang.IntConst{Value: 0})
	ctx.AssumeAssign("j", lang.MustParseStmt("j := al - 1;").(lang.Assign).E)
	ctx.AssumeAssign("y", lang.MustParseStmt("y := al;").(lang.Assign).E)

	guard := lang.MustParse("func t(i, j) { notify 1 (i > 0 && j >= 0); }").Body.(lang.Cond).Test
	body := lang.MustParseStmt(`
  i := i - 1; t1 := f(i); x := x + t1;
  t2 := f(j); y := y + t2; j := j - 1;`)

	inv := Infer(ctx, guard, body)
	if !hasInvariant(inv, "j - i == -1") && !hasInvariant(inv, "i - j == 1") {
		t.Fatalf("missing j = i - 1 in inferred invariant: %s", String(inv))
	}

	// The invariant must discharge the Loop 2 side condition:
	// Ψ1 ∧ ¬(e1 ∧ e2) ⊨ ¬e1 ∧ ¬e2.
	c := sym.NewContext(ctx.Solver())
	for _, f := range inv {
		c.AssumeBool(f)
	}
	c.AssumeBool(lang.Not{E: guard})
	nE1 := lang.MustParse("func t(i) { notify 1 (!(i > 0)); }").Body.(lang.Cond).Test
	nE2 := lang.MustParse("func t(j) { notify 1 (!(j >= 0)); }").Body.(lang.Cond).Test
	if !c.EntailsBool(nE1) || !c.EntailsBool(nE2) {
		t.Fatalf("invariant %s does not prove equal iteration counts", String(inv))
	}
}

// TestWeatherLoops mirrors Example 2: g1 iterates i = 2..12 (while i ≤ 12),
// g2 iterates j = 1..11 (while j < 12, incrementing first); with bodies
// fused in lockstep the invariant j = i - 1 holds.
func TestWeatherLoops(t *testing.T) {
	ctx := sym.NewContext(smt.New())
	ctx.AssumeAssign("i", lang.IntConst{Value: 2})
	ctx.AssumeAssign("j", lang.IntConst{Value: 1})
	guard := lang.MustParse("func t(i, j) { notify 1 (i <= 12 && j < 12); }").Body.(lang.Cond).Test
	body := lang.MustParseStmt(`t := getTemp(i); i := i + 1; j := j + 1; cur := getTemp(j);`)
	inv := Infer(ctx, guard, body)
	if !hasInvariant(inv, "i - j == 1") && !hasInvariant(inv, "j - i == -1") {
		t.Fatalf("missing i - j = 1: %s", String(inv))
	}
}

func TestBoundsInvariant(t *testing.T) {
	ctx := sym.NewContext(smt.New())
	ctx.AssumeAssign("i", lang.IntConst{Value: 0})
	guard := lang.MustParse("func t(i) { notify 1 (i < 10); }").Body.(lang.Cond).Test
	body := lang.MustParseStmt(`i := i + 1;`)
	inv := Infer(ctx, guard, body)
	// 0 ≤ i must survive; i ≤ 0 must not.
	if !hasInvariant(inv, "0 <= i") {
		t.Fatalf("missing 0 ≤ i: %s", String(inv))
	}
	if hasInvariant(inv, "i <= 0") {
		t.Fatalf("i ≤ 0 is not inductive here: %s", String(inv))
	}
}

func TestNonInductiveFiltered(t *testing.T) {
	// x = y holds at entry but the body breaks it; must be filtered.
	ctx := sym.NewContext(smt.New())
	ctx.AssumeAssign("x", lang.IntConst{Value: 0})
	ctx.AssumeAssign("y", lang.IntConst{Value: 0})
	guard := lang.MustParse("func t(x) { notify 1 (x < 5); }").Body.(lang.Cond).Test
	body := lang.MustParseStmt(`x := x + 1; y := y + 2;`)
	inv := Infer(ctx, guard, body)
	if hasInvariant(inv, "x - y == 0") {
		t.Fatalf("x = y wrongly kept: %s", String(inv))
	}
	// x ≤ y IS inductive (x grows slower) and true at entry.
	if !hasInvariant(inv, "x <= y") {
		t.Fatalf("x ≤ y missing: %s", String(inv))
	}
}

func TestInferDoesNotMutateContext(t *testing.T) {
	ctx := sym.NewContext(smt.New())
	ctx.AssumeAssign("i", lang.IntConst{Value: 2})
	before := len(ctx.Conjuncts())
	guard := lang.MustParse("func t(i) { notify 1 (i <= 12); }").Body.(lang.Cond).Test
	Infer(ctx, guard, lang.MustParseStmt(`i := i + 1;`))
	if len(ctx.Conjuncts()) != before {
		t.Fatal("Infer mutated the caller's context")
	}
}

// inductive reports why inv is not an inductive invariant of
// while (guard) { body } entered under ctx, or "" when it is: every member
// must hold at entry, and be entailed after one execution of the body from
// any state satisfying all members and the guard. The check runs on a
// fresh solver, so nothing Infer cached answers it.
func inductive(ctx *sym.Context, guard lang.BoolExpr, body lang.Stmt, inv []lang.BoolExpr) string {
	for _, f := range inv {
		if !ctx.EntailsBool(f) {
			return fmt.Sprintf("%v does not hold at entry", f)
		}
	}
	post := sym.NewContext(smt.New())
	for _, f := range inv {
		post.AssumeBool(f)
	}
	post.AssumeBool(guard)
	post.ApplyStmt(body)
	for _, f := range inv {
		if !post.EntailsBool(f) {
			return fmt.Sprintf("%v is not preserved by the body", f)
		}
	}
	return ""
}

// TestInferResultIsInductive re-checks every set Infer returns on the
// package's loops, including a shift register a := b; b := c; c := d;
// d := d + 1 whose equalities fall one per Houdini round: c = d in the
// first, b = c in the second, a = b only in the third, each preserved
// under a hypothesis that still assumed the one dropped before it.
func TestInferResultIsInductive(t *testing.T) {
	type loop struct {
		name        string
		init        string
		guard, body string
		absent      []string
	}
	loops := []loop{
		{"example 6", "i := al; x := 0; j := al - 1; y := al;", "i > 0 && j >= 0",
			"i := i - 1; t1 := f(i); x := x + t1; t2 := f(j); y := y + t2; j := j - 1;", nil},
		{"weather", "i := 2; j := 1;", "i <= 12 && j < 12",
			"t := getTemp(i); i := i + 1; j := j + 1; cur := getTemp(j);", nil},
		{"bounds", "i := 0;", "i < 10", "i := i + 1;", []string{"i <= 0"}},
		{"non-inductive", "x := 0; y := 0;", "x < 5", "x := x + 1; y := y + 2;", []string{"x - y == 0"}},
		{"shift register", "i := 0; a := 0; b := 0; c := 0; d := 0;", "i < 10",
			"a := b; b := c; c := d; d := d + 1; i := i + 1;",
			[]string{"c - d == 0", "b - c == 0", "a - b == 0"}},
	}
	for _, l := range loops {
		ctx := sym.NewContext(smt.New())
		ctx.ApplyStmt(lang.MustParseStmt(l.init))
		guard := lang.MustParse("func t(i) { notify 1 (" + l.guard + "); }").Body.(lang.Cond).Test
		body := lang.MustParseStmt(l.body)
		inv := Infer(ctx, guard, body)
		if why := inductive(ctx, guard, body, inv); why != "" {
			t.Errorf("%s: %s in %s", l.name, why, String(inv))
		}
		for _, f := range l.absent {
			if hasInvariant(inv, f) {
				t.Errorf("%s: %s kept: %s", l.name, f, String(inv))
			}
		}
	}
}
