package consolidate

import (
	"strconv"
	"strings"
	"testing"

	"consolidation/internal/lang"
)

// paperLib models the library functions of the paper's running examples,
// with call costs that make reuse worthwhile.
func paperLib() *lang.MapLibrary {
	lib := &lang.MapLibrary{}
	// airlineName(r): interned lowercase airline name of flight r.
	lib.Define("airlineName", 40, func(a []int64) (int64, error) { return a[0] % 5, nil })
	// price(r)
	lib.Define("price", 20, func(a []int64) (int64, error) { return (a[0]*37 + 11) % 400, nil })
	// getTempOfMonth(r, m)
	lib.Define("getTempOfMonth", 30, func(a []int64) (int64, error) { return (a[0]+a[1]*7)%22 - 1, nil })
	lib.Define("f", 50, func(a []int64) (int64, error) { return 3*a[0] + 1, nil })
	return lib
}

func inputs(n int64) [][]int64 {
	var out [][]int64
	for i := int64(0); i < n; i++ {
		out = append(out, []int64{i})
	}
	return out
}

func mustPair(t *testing.T, p1, p2 *lang.Program) (*lang.Program, *Consolidator) {
	t.Helper()
	opts := DefaultOptions()
	opts.FuncCoster = paperLib()
	co := New(opts)
	merged, err := co.Pair(p1, p2)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	return merged, co
}

// TestExample1 is the paper's Section 2 flight example: f1 filters United or
// Southwest; f2 filters cheap United flights. The consolidated program must
// compute airlineName once and test "united" once.
func TestExample1(t *testing.T) {
	// Interned strings: united = 1, southwest = 2.
	f1 := lang.MustParse(`
func f1(fi) {
  name := airlineName(fi);
  if (name == 1) { notify 1 true; } else { notify 1 (name == 2); }
}`)
	f2 := lang.MustParse(`
func f2(fi) {
  if (price(fi) >= 200) { notify 2 false; }
  else { notify 2 (airlineName(fi) == 1); }
}`)
	merged, _ := mustPair(t, f1, f2)
	text := lang.Format(merged)
	if n := strings.Count(text, "airlineName"); n != 1 {
		t.Errorf("airlineName should be computed exactly once, found %d times in:\n%s", n, text)
	}
	if err := Verify([]*lang.Program{f1, f2}, merged, paperLib(), nil, inputs(50), false); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestExample2 is the paper's weather example: g1 computes the minimum
// monthly temperature, g2 the maximum. Their loops must fuse (Loop 2 or
// Loop 3) and getTempOfMonth must be called once per month in the fused
// body.
func TestExample2(t *testing.T) {
	g1 := lang.MustParse(`
func g1(wi) {
  min := getTempOfMonth(wi, 1);
  i := 2;
  while (i <= 12) {
    t := getTempOfMonth(wi, i);
    if (t < min) { min := t; }
    i := i + 1;
  }
  notify 1 (min > 15);
}`)
	g2 := lang.MustParse(`
func g2(wi) {
  j := 1;
  max := getTempOfMonth(wi, j);
  while (j < 12) {
    j := j + 1;
    cur := getTempOfMonth(wi, j);
    if (cur > max) { max := cur; }
  }
  notify 2 (max < 10);
}`)
	merged, co := mustPair(t, g1, g2)
	if co.Stats().Loop2+co.Stats().Loop3 == 0 {
		t.Errorf("loops did not fuse: %+v\n%s", co.Stats(), lang.Format(merged))
	}
	if err := Verify([]*lang.Program{g1, g2}, merged, paperLib(), nil, inputs(40), false); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestFigure6 is the calculus example of Figure 6: two opposite threshold
// filters must merge into a single test.
func TestFigure6(t *testing.T) {
	p1 := lang.MustParse(`func p1(x, a) { notify 1 (x > a); }`)
	p2 := lang.MustParse(`func p2(x, a) { notify 2 (x <= a); }`)
	merged, co := mustPair(t, p1, p2)
	// One conditional, no nested test: notify2's test is resolved by If 1/2.
	if co.Stats().If1+co.Stats().If2 == 0 {
		t.Errorf("second test not eliminated: %+v\n%s", co.Stats(), lang.Format(merged))
	}
	text := lang.Format(merged)
	if n := strings.Count(text, "if "); n != 1 {
		t.Errorf("expected exactly one test, got %d:\n%s", n, text)
	}
	for i := int64(0); i < 10; i++ {
		if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil,
			[][]int64{{i, 5}}, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExample4 is the static memoization example: x := f(α)+1 in one
// program lets y := f(α)-1 in the other become y := x - 2.
func TestExample4(t *testing.T) {
	p1 := lang.MustParse(`func p1(a) { x := f(a) + 1; notify 1 (x > 0); }`)
	p2 := lang.MustParse(`func p2(a) { y := f(a) - 1; notify 2 (y > 0); }`)
	merged, _ := mustPair(t, p1, p2)
	text := lang.Format(merged)
	if n := strings.Count(text, "f(a)"); n != 1 {
		t.Errorf("f(a) should be evaluated once, found %d:\n%s", n, text)
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, inputs(20), false); err != nil {
		t.Fatal(err)
	}
}

// TestExample6 fuses the loop pair of the paper's Example 6 with shifted
// counters (j = i - 1) and checks that f is called once per iteration.
func TestExample6(t *testing.T) {
	p1 := lang.MustParse(`
func p1(a) {
  i := a; x := 0;
  while (i > 0) { i := i - 1; t1 := f(i); x := x + t1; }
  notify 1 (x > 100);
}`)
	p2 := lang.MustParse(`
func p2(a) {
  j := a - 1; y := a;
  while (j >= 0) { t2 := f(j); y := y + t2; j := j - 1; }
  notify 2 (y > 100);
}`)
	merged, co := mustPair(t, p1, p2)
	if co.Stats().Loop2 == 0 {
		t.Errorf("Loop 2 did not fire: %+v\n%s", co.Stats(), lang.Format(merged))
	}
	text := lang.Format(merged)
	if n := strings.Count(text, "f("); n != 1 {
		t.Errorf("f should appear once in the fused body, found %d:\n%s", n, text)
	}
	for i := int64(0); i < 8; i++ {
		if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil,
			[][]int64{{i}}, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImplicationSharing: if P1's predicate implies P2's, embedding makes
// P2's test free in one branch.
func TestImplicationSharing(t *testing.T) {
	p1 := lang.MustParse(`func p1(r) { notify 1 (price(r) < 100); }`)
	p2 := lang.MustParse(`func p2(r) { notify 2 (price(r) < 200); }`)
	merged, co := mustPair(t, p1, p2)
	st := co.Stats()
	if st.If1 == 0 {
		t.Errorf("p1's branch should make p2's test redundant: %+v\n%s", st, lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, inputs(30), false); err != nil {
		t.Fatal(err)
	}
}

func TestPairValidation(t *testing.T) {
	a := lang.MustParse(`func a(x) { notify 1 true; }`)
	b := lang.MustParse(`func b(y) { notify 2 true; }`)
	opts := DefaultOptions()
	if _, err := New(opts).Pair(a, b); err == nil {
		t.Error("parameter name mismatch must be rejected")
	}
	c := lang.MustParse(`func c(x) { notify 1 false; }`)
	if _, err := New(opts).Pair(a, c); err == nil {
		t.Error("duplicate notification ids must be rejected")
	}
	d := lang.MustParse(`func d(x) { x := 1; notify 2 true; }`)
	if _, err := New(opts).Pair(a, d); err == nil {
		t.Error("assigning a parameter must be rejected")
	}
}

func TestLocalClashRenaming(t *testing.T) {
	p1 := lang.MustParse(`func p1(r) { v := price(r); notify 1 (v < 50); }`)
	p2 := lang.MustParse(`func p2(r) { v := price(r) + 1; notify 2 (v < 100); }`)
	merged, _ := mustPair(t, p1, p2)
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, inputs(30), false); err != nil {
		t.Fatal(err)
	}
}

func TestAllDivideAndConquer(t *testing.T) {
	var progs []*lang.Program
	// Ten threshold queries over the same call, binding the call to a local
	// first (the style of the paper's examples); memoization then removes
	// all but the first call.
	for i := 0; i < 10; i++ {
		progs = append(progs, lang.MustParse(
			"func q(r) { v := price(r); notify 1 (v < "+strconv.Itoa(100+i*20)+"); }"))
	}
	opts := DefaultOptions()
	opts.FuncCoster = paperLib()
	merged, ms, err := All(progs, opts, true, false)
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if ms.Pairs != 9 || ms.Levels != 4 {
		t.Errorf("expected 9 pairs over 4 levels, got %+v", ms)
	}
	if err := Verify(progs, merged, paperLib(), nil, inputs(60), true); err != nil {
		t.Fatal(err)
	}
	// The fused program must call price once.
	if n := strings.Count(lang.Format(merged), "price("); n != 1 {
		t.Errorf("price should be called once, found %d", n)
	}
}

// TestLevelsAreCeilLog2 pins the tree shape: N leaves take N−1 pairs over
// ⌈log₂N⌉ levels, and leaves keyed by arbitrary ids build the same shape
// to the same size as All's 0…N−1.
func TestLevelsAreCeilLog2(t *testing.T) {
	for _, c := range []struct{ n, levels int }{{1, 0}, {2, 1}, {3, 2}, {5, 3}, {10, 4}, {50, 6}} {
		var progs []*lang.Program
		var leaves []Leaf
		for i := 0; i < c.n; i++ {
			p := lang.MustParse("func q(r) { v := price(r); notify 1 (v < " + strconv.Itoa(100+i*20) + "); }")
			progs = append(progs, p)
			leaves = append(leaves, Leaf{ID: 1000 + 7*i, Prog: p})
		}
		opts := DefaultOptions()
		opts.FuncCoster = paperLib()
		_, ms, err := All(progs, opts, true, false)
		if err != nil {
			t.Fatalf("N=%d: %v", c.n, err)
		}
		if ms.Pairs != c.n-1 || ms.Levels != c.levels {
			t.Errorf("N=%d: %d pairs over %d levels, want %d over %d", c.n, ms.Pairs, ms.Levels, c.n-1, c.levels)
		}
		_, bms, err := Build(leaves, opts, 2, NewMemo())
		if err != nil {
			t.Fatalf("N=%d: Build: %v", c.n, err)
		}
		if bms.Pairs != ms.Pairs || bms.Levels != ms.Levels || bms.OutputSize != ms.OutputSize {
			t.Errorf("N=%d: id-keyed build %d pairs, %d levels, size %d; All %d, %d, %d",
				c.n, bms.Pairs, bms.Levels, bms.OutputSize, ms.Pairs, ms.Levels, ms.OutputSize)
		}
	}
}

func TestAllParallelMatchesSerial(t *testing.T) {
	var progs []*lang.Program
	for i := 0; i < 8; i++ {
		progs = append(progs, lang.MustParse(
			"func q(r) { notify 1 (getTempOfMonth(r, "+strconv.Itoa(1+i%3)+") > "+strconv.Itoa(i)+"); }"))
	}
	opts := DefaultOptions()
	opts.FuncCoster = paperLib()
	serial, _, err := All(progs, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := All(progs, opts, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if lang.Format(serial) != lang.Format(par) {
		t.Error("parallel and serial consolidation disagree")
	}
	if err := Verify(progs, par, paperLib(), nil, inputs(40), true); err != nil {
		t.Fatal(err)
	}
}

func TestFoldInt(t *testing.T) {
	e := lang.MustParseStmt("z := (x - 1) - 1;").(lang.Assign).E
	if got := foldInt(e).String(); got != "(x - 2)" {
		t.Errorf("foldInt((x-1)-1) = %s", got)
	}
	cases := map[string]string{
		"z := x + 0;":       "x",
		"z := 0 + x;":       "x",
		"z := x * 1;":       "x",
		"z := x * 0;":       "0",
		"z := 2 + 3;":       "5",
		"z := (x + 5) - 2;": "(x + 3)",
		"z := (x - 2) + 2;": "x",
		"z := f(x + 0);":    "f(x)",
	}
	for src, want := range cases {
		e := lang.MustParseStmt(src).(lang.Assign).E
		if got := foldInt(e).String(); got != want {
			t.Errorf("foldInt(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestFoldBool(t *testing.T) {
	tr := lang.BoolConst{Value: true}
	fa := lang.BoolConst{Value: false}
	x := lang.Cmp{Op: lang.Lt, L: lang.Var{Name: "x"}, R: lang.IntConst{Value: 1}}
	if foldBool(lang.BinBool{Op: lang.And, L: tr, R: x}).String() != x.String() {
		t.Error("true ∧ x should fold to x")
	}
	if foldBool(lang.BinBool{Op: lang.And, L: x, R: fa}).String() != fa.String() {
		t.Error("x ∧ false should fold to false")
	}
	if foldBool(lang.BinBool{Op: lang.Or, L: x, R: tr}).String() != tr.String() {
		t.Error("x ∨ true should fold to true")
	}
	if foldBool(lang.Not{E: fa}).String() != tr.String() {
		t.Error("¬false should fold to true")
	}
	if foldBool(lang.Not{E: lang.Not{E: x}}).String() != x.String() {
		t.Error("¬¬x should fold to x")
	}
}

// TestLoop3DifferentCounts consolidates loops with provably different
// iteration counts: p1 runs 10 iterations, p2 runs 5 with a synchronised
// counter. Loop 3 fuses the common prefix and appends p1's remainder.
func TestLoop3DifferentCounts(t *testing.T) {
	p1 := lang.MustParse(`
func p1(a) {
  i := 0; x := 0;
  while (i < 10) { x := x + f(i); i := i + 1; }
  notify 1 (x > 50);
}`)
	p2 := lang.MustParse(`
func p2(a) {
  j := 0; y := 0;
  while (j < 5) { y := y + f(j); j := j + 1; }
  notify 2 (y > 20);
}`)
	merged, co := mustPair(t, p1, p2)
	st := co.Stats()
	if st.Loop3 == 0 {
		t.Errorf("Loop 3 did not fire: %+v\n%s", st, lang.Format(merged))
	}
	// Loop 3's shape: a fused prefix loop guarded by the shorter loop's
	// test, then S1; while e1 do S1 as p1's remainder — four textual call
	// sites, but the runtime call count drops from 15 to at most 15 (5
	// fused + 5 + 5 remainder) with one guard evaluation saved per fused
	// iteration. (Calls inline in compound right-hand sides are not
	// memoized: the calculus introduces no temporaries.)
	if n := strings.Count(lang.Format(merged), "f("); n > 4 {
		t.Errorf("expected ≤4 f call sites after Loop 3, found %d:\n%s", n, lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, inputs(5), false); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyCatchesViolations ensures the checker actually detects a wrong
// merge (here: a hand-built program that flips one notification).
func TestVerifyCatchesViolations(t *testing.T) {
	p1 := lang.MustParse(`func p1(a) { notify 1 (a > 0); }`)
	p2 := lang.MustParse(`func p2(a) { notify 2 (a > 5); }`)
	wrong := lang.MustParse(`
func w(a) {
  if (a > 0) { notify 1 true; } else { notify 1 false; }
  notify 2 false;
}`)
	if err := Verify([]*lang.Program{p1, p2}, wrong, paperLib(), nil,
		[][]int64{{7}}, false); err == nil {
		t.Fatal("Verify accepted a wrong consolidation")
	}
	costly := lang.MustParse(`
func c(a) {
  z1 := f(a); z2 := f(a); z3 := f(a);
  if (z1 + z2 + z3 - z2 - z3 > 0) { notify 1 true; } else { notify 1 false; }
  if (z1 > 5) { notify 2 true; } else { notify 2 false; }
}`)
	if err := Verify([]*lang.Program{p1, p2}, costly, paperLib(), nil,
		[][]int64{{7}}, false); err == nil {
		t.Fatal("Verify accepted a cost-increasing consolidation")
	}
}

// TestJoinKeepsBranchDefinitions: both arms of p1's conditional end on
// v := f(a), so after the If 5 join p2 reads v instead of calling f again.
func TestJoinKeepsBranchDefinitions(t *testing.T) {
	p1 := lang.MustParse(`
func p1(a, b) {
  if (price(b) > 100) { v := f(a); notify 1 (v > 50); } else { v := f(a); notify 1 (v > 90); }
}`)
	p2 := lang.MustParse(`func p2(a, b) { notify 2 (f(a) > 20); }`)
	merged, co := mustPair(t, p1, p2)
	if s := co.Stats(); s.If3+s.If4 != 0 {
		t.Fatalf("p2 was embedded: %+v", s)
	}
	if n := strings.Count(lang.Format(merged), "f(a)"); n != 2 {
		t.Errorf("f(a) should be called once per arm and not again after the join, found %d sites:\n%s",
			n, lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, pairInputs(12), false); err != nil {
		t.Fatal(err)
	}
}

// TestJoinAfterNestedIf3: the then-arm of p1's If 4 ends in a nested If 3
// that reassigns v, which both arms first set to f(s). The nested
// conditional's own join must move the arm's context past it, or the outer
// join would keep v = f(s) and w := f(s) would read a v the nested arms
// overwrote.
func TestJoinAfterNestedIf3(t *testing.T) {
	lib := &lang.MapLibrary{}
	for i, fn := range []string{"a", "h", "f", "g", "k"} {
		mul := int64(i + 2)
		lib.Define(fn, 30, func(x []int64) (int64, error) { return (x[0]*mul+int64(i))%17 - 8, nil })
	}
	p1 := lang.MustParse(`
func p1(r, s) {
  if (a(r) > 0) {
    v := f(s);
    if (h(r) > 0) { v := g(s); } else { v := k(s); }
    notify 1 (h(r) > 5);
  } else {
    v := f(s);
  }
  w := f(s);
  notify 2 (w > v);
}`)
	p2 := lang.MustParse(`func p2(r, s) { notify 3 (a(r) + h(r) > 2); }`)
	opts := DefaultOptions()
	opts.FuncCoster = lib
	co := New(opts)
	merged, err := co.Pair(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.If3 == 0 || s.If4 == 0 {
		t.Fatalf("want an If 4 with an If 3 inside, got %+v:\n%s", s, lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, lib, nil, pairInputs(17), false); err != nil {
		t.Fatalf("%v\n%s", err, lang.Format(merged))
	}
}

// pairInputs is every pair over [0, n)², the sample inputs of the
// two-parameter tests.
func pairInputs(n int64) [][]int64 {
	var in [][]int64
	for a := int64(0); a < n; a++ {
		for b := int64(0); b < n; b++ {
			in = append(in, []int64{a, b})
		}
	}
	return in
}

// TestNoEmbedOfLoopRest: p1 ends in a conditional related to p2, but p2
// holds a loop, so If 4 would copy the loop into both arms, where it could
// never fuse with a later loop. If 5 fires instead and the output keeps
// exactly one loop.
func TestNoEmbedOfLoopRest(t *testing.T) {
	p1 := lang.MustParse(`
func p1(a, b) {
  if (f(a) > 10) { notify 1 (b > 3); } else { notify 1 (b > 7); }
}`)
	p2 := lang.MustParse(`
func p2(a, b) {
  i := 0; x := 0;
  while (i < 3) { x := x + f(a) + i; i := i + 1; }
  notify 2 (x > b);
}`)
	merged, co := mustPair(t, p1, p2)
	s := co.Stats()
	if s.If4 != 0 || s.If5 == 0 {
		t.Errorf("want If 5 and no If 4 over a loop, got %+v:\n%s", s, lang.Format(merged))
	}
	if n := lang.CountNodes[lang.While](merged.Body); n != 1 {
		t.Errorf("want exactly one loop in the output, found %d:\n%s", n, lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, pairInputs(12), false); err != nil {
		t.Fatalf("%v\n%s", err, lang.Format(merged))
	}
}

// TestNoEmbedOfLoopCont: the code after p1's conditional (C) holds a loop
// and relates to p2, so If 3 would copy the loop into both arms. Only the
// loop-free p2 is embedded (If 4), and the loop stays after the
// conditional.
func TestNoEmbedOfLoopCont(t *testing.T) {
	p1 := lang.MustParse(`
func p1(a, b) {
  if (f(a) > 10) { y := 1; } else { y := 2; }
  i := 0; x := 0;
  while (i < 3) { x := x + f(a) + y; i := i + 1; }
  notify 1 (x > b);
}`)
	p2 := lang.MustParse(`func p2(a, b) { notify 2 (f(a) > b + 20); }`)
	merged, co := mustPair(t, p1, p2)
	s := co.Stats()
	if s.If3 != 0 || s.If4 == 0 {
		t.Errorf("want If 4 and no If 3 over a loop, got %+v:\n%s", s, lang.Format(merged))
	}
	top := 0
	for _, st := range lang.Flatten(merged.Body) {
		switch st := st.(type) {
		case lang.While:
			top++
		case lang.Cond:
			if lang.CountNodes[lang.While](st) > 0 {
				t.Errorf("a loop was embedded in a conditional:\n%s", lang.Format(merged))
			}
		}
	}
	if top != 1 {
		t.Errorf("want the loop once after the conditional, found %d top-level loops:\n%s", top, lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, pairInputs(12), false); err != nil {
		t.Fatalf("%v\n%s", err, lang.Format(merged))
	}
}

// TestEmbedLoopFreeRest: a loop-free p2 related to p1's final conditional
// is still embedded in both arms (If 4).
func TestEmbedLoopFreeRest(t *testing.T) {
	p1 := lang.MustParse(`
func p1(a, b) {
  if (f(a) > 10) { notify 1 (b > 3); } else { notify 1 (b > 7); }
}`)
	p2 := lang.MustParse(`func p2(a, b) { notify 2 (f(a) > b + 20); }`)
	merged, co := mustPair(t, p1, p2)
	if s := co.Stats(); s.If4 == 0 {
		t.Errorf("want If 4, got %+v:\n%s", s, lang.Format(merged))
	}
	if top := lang.Flatten(merged.Body); len(top) != 1 {
		t.Errorf("want p2 inside the conditional's arms, found %d top-level statements:\n%s", len(top), lang.Format(merged))
	}
	if err := Verify([]*lang.Program{p1, p2}, merged, paperLib(), nil, pairInputs(12), false); err != nil {
		t.Fatalf("%v\n%s", err, lang.Format(merged))
	}
}
