package consolidate

import (
	"strconv"
	"testing"

	"consolidation/internal/lang"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

func simpCtx() (*Simplifier, *sym.Context) {
	lib := paperLib()
	s := NewSimplifier(lang.DefaultCostModel(), lib)
	return s, sym.NewContext(smt.New())
}

func assignE(src string) lang.IntExpr { return lang.MustParseStmt(src).(lang.Assign).E }
func testE(src string) lang.BoolExpr {
	return lang.MustParse("func t(r) { notify 1 (" + src + "); }").Body.(lang.Cond).Test
}

func TestSimplifyBoolConstants(t *testing.T) {
	s, ctx := simpCtx()
	ctx.AssumeBool(testE("x > 5"))
	if got := s.SimplifyBool(ctx, testE("x > 3")); got.String() != "true" {
		t.Errorf("x>5 ⊢ x>3 should simplify to true, got %v", got)
	}
	if got := s.SimplifyBool(ctx, testE("x < 2")); got.String() != "false" {
		t.Errorf("x>5 ⊢ x<2 should simplify to false, got %v", got)
	}
	// Undecided predicates stay structural.
	if got := s.SimplifyBool(ctx, testE("x > 9")); got.String() == "true" || got.String() == "false" {
		t.Errorf("x>9 must remain undecided, got %v", got)
	}
}

func TestSimplifyBoolRecursesIntoConnectives(t *testing.T) {
	s, ctx := simpCtx()
	ctx.AssumeBool(testE("x > 5"))
	// (x > 3) && (y < 2): left folds to true, whole folds to right.
	got := s.SimplifyBool(ctx, testE("x > 3 && y < 2"))
	if got.String() != testE("y < 2").String() {
		t.Errorf("fold((⊤ ∧ e)) = e expected, got %v", got)
	}
	// (x < 2) || e folds to e.
	got = s.SimplifyBool(ctx, testE("x < 2 || y < 2"))
	if got.String() != testE("y < 2").String() {
		t.Errorf("fold((⊥ ∨ e)) = e expected, got %v", got)
	}
	// Negation: !(x > 3) folds to false.
	got = s.SimplifyBool(ctx, testE("!(x > 3)"))
	if got.String() != "false" {
		t.Errorf("¬⊤ should fold to ⊥, got %v", got)
	}
}

func TestSimplifyIntMemoization(t *testing.T) {
	s, ctx := simpCtx()
	ctx.AssumeAssign("v", assignE("v := price(r);"))
	got := s.SimplifyInt(ctx, assignE("w := price(r);"))
	if got.String() != "v" {
		t.Errorf("price(r) should memoize to v, got %v", got)
	}
	// After v is reassigned the memoization must be dropped.
	ctx.AssumeAssign("v", assignE("v := 0;"))
	got = s.SimplifyInt(ctx, assignE("w := price(r);"))
	if got.String() == "v" {
		t.Error("stale definition reused after overwrite")
	}
}

func TestSimplifyIntOffset(t *testing.T) {
	// Example 4: x = f(a)+1 makes f(a)-1 rewrite to x-2.
	s, ctx := simpCtx()
	ctx.AssumeAssign("x", assignE("x := f(a) + 1;"))
	got := s.SimplifyInt(ctx, assignE("y := f(a) - 1;"))
	if got.String() != "(x - 2)" {
		t.Errorf("f(a)-1 should become x-2, got %v", got)
	}
}

// TestSimplifyIntOffsetChain pins what the offset index answers for a
// chain y := f(a) + 1; z := y + 1. The index holds each definition's own
// linear form, and those do not compose: f(a) becomes y − 1 from y's
// definition, but once y is overwritten f(a) − 2 stays a call, although
// z still holds f(a) + 2 and z − 4 would do.
func TestSimplifyIntOffsetChain(t *testing.T) {
	s, ctx := simpCtx()
	ctx.AssumeAssign("y", assignE("y := f(a) + 1;"))
	ctx.AssumeAssign("z", assignE("z := y + 1;"))
	if got := s.SimplifyInt(ctx, assignE("w := f(a);")); got.String() != "(y - 1)" {
		t.Errorf("f(a) should become y-1, got %v", got)
	}
	ctx.AssumeAssign("y", assignE("y := 0;"))
	q0 := ctx.Solver().Stats.Queries
	if got := s.SimplifyInt(ctx, assignE("w := f(a) - 2;")); got.String() != "(f(a) - 2)" {
		t.Errorf("the chain through z is not indexed, want f(a)-2 kept, got %v", got)
	}
	if q := ctx.Solver().Stats.Queries - q0; q != 0 {
		t.Errorf("%d solver queries: no current definition calls f, so none should be asked", q)
	}
}

func TestSimplifyIntInsideCallArgs(t *testing.T) {
	s, ctx := simpCtx()
	ctx.AssumeAssign("m", assignE("m := 3;"))
	// Arguments are simplified even when the call itself cannot be replaced:
	// tempOfMonth(r, m+0) folds its argument.
	got := s.SimplifyInt(ctx, assignE("t := getTempOfMonth(r, m + 0);"))
	if got.String() != "getTempOfMonth(r, m)" {
		t.Errorf("argument not folded: %v", got)
	}
}

func TestSimplifyCostGuard(t *testing.T) {
	// A rewrite may never increase static cost: replacing a zero-cost call
	// with an offset expression must be refused.
	lib := &lang.MapLibrary{}
	lib.Define("cheap", 1, func(a []int64) (int64, error) { return a[0], nil })
	s := NewSimplifier(lang.DefaultCostModel(), lib)
	ctx := sym.NewContext(smt.New())
	ctx.AssumeAssign("x", assignE("x := cheap(a) + 1;"))
	got := s.SimplifyInt(ctx, assignE("y := cheap(a);"))
	// cost(cheap(a)) = 1+1 = 2; x - 1 costs 3 → must keep the call.
	if got.String() != "cheap(a)" {
		t.Errorf("cost-increasing rewrite accepted: %v", got)
	}
}

func TestSimplifyKeyFiltering(t *testing.T) {
	// Definitions with incompatible constant arguments are never probed:
	// the result must stay a call, and quickly.
	s, ctx := simpCtx()
	for m := 1; m <= 20; m++ {
		ctx.AssumeAssign("v"+strconv.Itoa(m), lang.Call{Func: "getTempOfMonth",
			Args: []lang.IntExpr{lang.Var{Name: "r"}, lang.IntConst{Value: int64(m)}}})
	}
	q0 := ctx.Solver().Stats.Queries
	got := s.SimplifyInt(ctx, lang.Call{Func: "getTempOfMonth",
		Args: []lang.IntExpr{lang.Var{Name: "r"}, lang.IntConst{Value: 99}}})
	if _, ok := got.(lang.Call); !ok {
		t.Errorf("month 99 matches no definition, got %v", got)
	}
	if q := ctx.Solver().Stats.Queries - q0; q > 2 {
		t.Errorf("hopeless probes not filtered: %d solver queries", q)
	}
}
