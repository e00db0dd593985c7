package lang

import (
	"strings"
	"testing"
)

// vmPrograms exercise every lowering path: plain expressions, the fused
// call shapes f(v) / f(v, const) / f(u, v), `x := y ± k`, fused
// var-vs-const tests in cond and while, fused cond-notify pairs (both
// polarities), var-vs-var tests, notify runs inside branches, and
// guarded-move chains of both forms and operators.
var vmPrograms = []string{
	`func p0(r) { x := f(r); notify 1 (x > 2); }`,
	`func p1(r) { vs := g(r, 3); if (11 < vs) { notify 1 true; } else { notify 1 false; } }`,
	`func p2(r) { vs := g(r, 3); if (vs < 11) { notify 1 false; } else { notify 1 true; } }`,
	`func p3(r) {
	   a := f(r); b := g(r, 2);
	   if (a <= b) { notify 1 true; notify 2 false; } else { notify 1 false; notify 2 true; }
	 }`,
	`func p4(r) {
	   i := 0; s := 0;
	   while (i < 10) { s := s + g(r, i); i := i + 1; }
	   notify 1 (s > 50); notify 2 (s == 0);
	 }`,
	`func p5(r) {
	   x := f(r);
	   if (x == 4) { notify 1 true; } else { notify 1 false; }
	   if (4 == x) { notify 2 false; } else { notify 2 true; }
	 }`,
	`func p6(r) {
	   a := f(r); b := f(r + 1);
	   if (a < b) { if (b < 10) { notify 1 true; } else { notify 1 false; } notify 2 true; }
	   else { notify 1 false; notify 2 false; }
	 }`,
	`func p7(r) { x := r * 2 + 1; notify 1 (!(x < 0) && (x <= 9 || x == 11)); }`,
	`func p8(r) {
	   if (r > 3) { x := r * 2; notify 1 (x == 8); } else { notify 1 false; }
	 }`,
	// x := y - 3, x := y + k and f(u, v).
	`func s0(r) { y := r - 3; z := g(r, y); u := z + 2; notify 1 (u < 5); notify 2 (y == 2); }`,
	// Max and min chains of length 1, both operators.
	`func c0(r) { m := 3; l := f(r); if (m < l) { m := l; } notify 1 (m == 6); }`,
	`func c1(r) { m := 6; l := f(r); if (m <= l) { m := l; } notify 1 (m == 6); }`,
	`func c2(r) { m := 3; l := f(r); if (l < m) { m := l; } notify 1 (m < 0); }`,
	`func c3(r) { m := 4; l := f(r); if (l <= m) { m := l; } notify 1 (m == 4); }`,
	// Length 5 with ties (accumulators 4, 6 and 8 tie l = 2r at r = 2, 3, 4;
	// ≤ takes the tie and charges the move).
	`func c4(r) {
	   a := 4; b := r; c := 6; d := 0 - r; e := 8; l := f(r);
	   if (a < l) { a := l; } if (b < l) { b := l; } if (c < l) { c := l; }
	   if (d < l) { d := l; } if (e < l) { e := l; }
	   notify 1 (a + b + c + d + e > 30);
	 }`,
	`func c5(r) {
	   a := 4; b := r; c := 6; d := 0 - r; e := 8; l := f(r);
	   if (a <= l) { a := l; } if (b <= l) { b := l; } if (c <= l) { c := l; }
	   if (d <= l) { d := l; } if (e <= l) { e := l; }
	   notify 1 (a + b + c + d + e > 30);
	 }`,
	`func c6(r) {
	   a := 4; b := r; c := 6; d := 0 - r; e := 8; l := f(r);
	   if (l < a) { a := l; } if (l < b) { b := l; } if (l < c) { c := l; }
	   if (l < d) { d := l; } if (l < e) { e := l; }
	   notify 1 (a + b + c + d + e < 10);
	 }`,
	`func c7(r) {
	   a := 4; b := r; c := 6; d := 0 - r; e := 8; l := f(r);
	   if (l <= a) { a := l; } if (l <= b) { b := l; } if (l <= c) { c := l; }
	   if (l <= d) { d := l; } if (l <= e) { e := l; }
	   notify 1 (a + b + c + d + e < 10);
	 }`,
	// A repeated destination reads the value an earlier element moved in:
	// under ≤ the second move of m is a tie and is taken again.
	`func c8(r) {
	   m := 4; a := 0; l := f(r);
	   if (m <= l) { m := l; } if (a <= l) { a := l; } if (m <= l) { m := l; }
	   notify 1 (m == a);
	 }`,
	// Chains broken by an unrelated statement, a second source, a second
	// operator and the other orientation.
	`func c9(r) {
	   a := 0; b := 0; c := 9; d := 9; l := f(r); k := g(r, 1);
	   if (a < l) { a := l; } k := k + 1; if (b < l) { b := l; }
	   if (a < k) { a := k; } if (b <= k) { b := k; } if (k < c) { c := k; }
	   if (d < l) { d := l; }
	   notify 1 (a < b); notify 2 (c < d);
	 }`,
	// The fused news loop: one shared call, a chain, the increment, the
	// rest of the chain.
	`func c10(r) {
	   n := r + 4; i := 0; a := 0; b := 5; c := 0;
	   while (i < n) {
	     l := g(r, i);
	     if (a < l) { a := l; }
	     i := i + 1;
	     if (b < l) { b := l; } if (c < l) { c := l; }
	   }
	   notify 1 (a == b); notify 2 (c > 6);
	 }`,
}

// diffOne runs p under both executors across a range of inputs and fails on
// any divergence in notes, total cost, per-notification stamps, or error
// strings.
func diffOne(t *testing.T, src string, cm *CostModel) {
	t.Helper()
	diffProgram(t, MustParse(src), cm)
}

// diffProgram is diffOne on a parsed (or generated) program.
func diffProgram(t *testing.T, p *Program, cm *CostModel) {
	t.Helper()
	lib := testLib()
	var opts []RunnerOption
	if cm != nil {
		opts = append(opts, WithCostModel(cm))
	}
	runner := NewRunner(MustCompile(p), lib, opts...)
	runner.MaxSteps = 1000
	for arg := int64(-4); arg <= 8; arg++ {
		in := NewInterp(lib)
		in.MaxSteps = 1000
		if cm != nil {
			in.CM = cm
		}
		want, err1 := in.Run(p, []int64{arg})
		notes, noteCosts, cost, err2 := runner.Run([]int64{arg})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s(%d): err mismatch %v vs %v", p.Name, arg, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("%s(%d): error strings diverge: %q vs %q", p.Name, arg, err1, err2)
			}
			continue
		}
		if !want.Notes.Equal(notes) {
			t.Fatalf("%s(%d): notes %v vs %v", p.Name, arg, want.Notes, notes)
		}
		if want.Cost != cost {
			t.Fatalf("%s(%d): cost %d vs %d", p.Name, arg, want.Cost, cost)
		}
		if len(want.NoteCosts) != len(noteCosts) {
			t.Fatalf("%s(%d): note cost maps %v vs %v", p.Name, arg, want.NoteCosts, noteCosts)
		}
		for id, c := range want.NoteCosts {
			if noteCosts[id] != c {
				t.Fatalf("%s(%d): note cost[%d] %d vs %d", p.Name, arg, id, c, noteCosts[id])
			}
		}
	}
}

func TestVMMatchesInterpDefaultModel(t *testing.T) {
	for _, src := range vmPrograms {
		diffOne(t, src, nil)
	}
}

// TestVMMatchesInterpCustomModel pins the cost-model divergence fix: under
// a non-default model every weight differs from the default, so any opcode
// charging the wrong component diverges from the interpreter immediately.
func TestVMMatchesInterpCustomModel(t *testing.T) {
	for _, src := range vmPrograms {
		diffOne(t, src, primeCostModel())
	}
}

// primeCostModel weighs every component differently from the default and
// from each other.
func primeCostModel() *CostModel {
	return &CostModel{
		IntConst: 2, BoolConst: 3, Var: 5, Arith: 7, Cmp: 11,
		Neg: 13, BoolOp: 17, Assign: 19, Notify: 23, Branch: 29, CallBase: 31,
	}
}

// TestFusedShapesLower pins how far the fused shapes lower, as instruction
// counts: a regression to the unfused forms shows up here before it shows
// up as time.
func TestFusedShapesLower(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		// A run of five guarded moves is one instruction.
		{`func k0(r) { if (a < l) { a := l; } if (b < l) { b := l; } if (a < l) { a := l; } if (c < l) { c := l; } if (d < l) { d := l; } }`, 1},
		{`func k1(r) { if (l <= a) { a := l; } if (l <= b) { b := l; } }`, 1},
		// Each change of source, operator or orientation starts a new run;
		// so does any other statement.
		{`func k2(r) { if (a < l) { a := l; } if (a < k) { a := k; } if (a <= k) { a := k; } if (k < a) { a := k; } }`, 4},
		{`func k3(r) { if (a < l) { a := l; } i := i + 1; if (b < l) { b := l; } }`, 3},
		// Not chains: a non-empty else-arm, a source that is also a
		// destination, an equality test, a constant source.
		{`func k4(r) { if (a < l) { a := l; } else { a := 0; } }`, 6},
		{`func k5(r) { if (a < a) { a := a; } }`, 4},
		{`func k6(r) { if (a == l) { a := l; } }`, 4},
		{`func k7(r) { if (a < 3) { a := 3; } }`, 4},
		// x := y ± k and f(u, v) are one instruction each; k + y and y * k
		// are not fused.
		{`func k8(r) { x := r + 1; y := x - 2; z := g(x, y); }`, 3},
		{`func k9(r) { x := 1 + r; y := r * 2; }`, 8},
	}
	for _, tc := range cases {
		c := MustCompile(MustParse(tc.src))
		if c.Len() != tc.want {
			t.Errorf("%s: %d instructions, want %d", c.prog.Name, c.Len(), tc.want)
		}
	}
}

func TestVMUnboundVariableNamesVariable(t *testing.T) {
	lib := testLib()
	// Shapes that read an unbound variable: a plain load, a fused test, a
	// fused cond-notify, y in x := y ± k, either argument of f(u, v), and
	// every read of a guarded-move chain. All must name the variable
	// exactly as the interpreter does, and the first unbound read in the
	// interpreter's order is the one named (ghost is unbound too).
	srcs := []string{
		`func u0(r) { x := mystery + 1; notify 1 (x > 0); }`,
		`func u1(r) { if (mystery < 5) { notify 1 true; } else { notify 1 false; notify 2 true; } }`,
		`func u2(r) { if (mystery < 5) { notify 1 true; } else { notify 1 false; } }`,
		`func u3(r) { x := mystery - 3; notify 1 (x > 0); }`,
		`func u4(r) { x := g(r, mystery); notify 1 (x > 0); }`,
		`func u5(r) { x := g(mystery, ghost); notify 1 (x > 0); }`,
		// A chain destination in the middle, max and min form.
		`func u6(r) { a := 0; b := 0; l := f(r); if (a < l) { a := l; } if (mystery < l) { mystery := l; } if (b < l) { b := l; } }`,
		`func u7(r) { a := 0; b := 0; l := f(r); if (l <= a) { a := l; } if (l <= mystery) { mystery := l; } if (l <= b) { b := l; } }`,
		// The chain source: read after the first destination in the max
		// form, before it in the min form.
		`func u8(r) { a := 0; b := 0; if (a < mystery) { a := mystery; } if (b < mystery) { b := mystery; } }`,
		`func u9(r) { if (mystery < ghost) { ghost := mystery; } }`,
		`func u10(r) { if (mystery <= ghost) { mystery := ghost; } }`,
	}
	for _, src := range srcs {
		p := MustParse(src)
		in := NewInterp(lib)
		_, err1 := in.Run(p, []int64{1})
		_, _, _, err2 := NewRunner(MustCompile(p), lib).Run([]int64{1})
		if err1 == nil || err2 == nil {
			t.Fatalf("%s: expected unbound-variable errors, got %v / %v", p.Name, err1, err2)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: error strings diverge: %q vs %q", p.Name, err1, err2)
		}
		if !strings.Contains(err2.Error(), `"mystery"`) {
			t.Fatalf("%s: error must name the variable: %q", p.Name, err2)
		}
	}
}

func TestVMErrorPathParity(t *testing.T) {
	lib := testLib()
	// Duplicate notification and loop bounds must produce the
	// interpreter's exact error strings.
	cases := []struct {
		src      string
		maxSteps int64
	}{
		{`func d0(r) { notify 1 true; notify 1 false; }`, 0},
		{`func d1(r) { if (r < 0) { notify 1 true; } else { notify 1 false; } notify 1 true; }`, 0},
		{`func d2(r) { i := 0; while (0 <= i) { i := i + 1; } notify 1 true; }`, 50},
	}
	for _, tc := range cases {
		p := MustParse(tc.src)
		in := NewInterp(lib)
		in.MaxSteps = tc.maxSteps
		_, err1 := in.Run(p, []int64{1})
		rn := NewRunner(MustCompile(p), lib)
		rn.MaxSteps = tc.maxSteps
		_, _, _, err2 := rn.Run([]int64{1})
		if err1 == nil || err2 == nil {
			t.Fatalf("%s: expected errors, got %v / %v", p.Name, err1, err2)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: error strings diverge: %q vs %q", p.Name, err1, err2)
		}
	}
}

func TestVMArityError(t *testing.T) {
	p := MustParse(`func a(r, s) { notify 1 (r < s); }`)
	rn := NewRunner(MustCompile(p), testLib())
	if _, _, _, err := rn.Run([]int64{1}); err == nil ||
		!strings.Contains(err.Error(), "expects 2 arguments, got 1") {
		t.Fatalf("arity error missing or wrong: %v", err)
	}
}

func TestVMNoteIndexAndDenseAccessors(t *testing.T) {
	p := MustParse(`func n(r) { notify 7 true; if (r < 0) { notify 3 true; } else { notify 3 false; } }`)
	c := MustCompile(p)
	if ids := c.NoteIDs(); len(ids) != 2 || ids[0] != 7 || ids[1] != 3 {
		t.Fatalf("NoteIDs first-occurrence order: %v", ids)
	}
	if _, ok := c.NoteIndex(99); ok {
		t.Fatal("NoteIndex(99) must report absence")
	}
	k7, _ := c.NoteIndex(7)
	k3, _ := c.NoteIndex(3)
	rn := NewRunner(c, testLib())
	if _, err := rn.RunDense([]int64{-2}); err != nil {
		t.Fatal(err)
	}
	if v, ok := rn.NoteAt(k7); !ok || !v {
		t.Fatalf("NoteAt(%d) = %v, %v", k7, v, ok)
	}
	if v, ok := rn.NoteAt(k3); !ok || !v {
		t.Fatalf("NoteAt(%d) = %v, %v", k3, v, ok)
	}
	if _, ok := rn.NoteAt(-1); ok {
		t.Fatal("NoteAt(-1) must report absence")
	}
	if v, ok := rn.Note(3); !ok || !v {
		t.Fatalf("Note(3) = %v, %v", v, ok)
	}
	if got := rn.NoteCostAt(k7); got <= 0 {
		t.Fatalf("NoteCostAt(%d) = %d, want positive stamp", k7, got)
	}
	// Stale generations are invisible after a fresh run takes a branch
	// that never notifies... every branch notifies here, so instead check
	// the stamps change with the branch taken.
	c7 := rn.NoteCostAt(k7)
	if _, err := rn.RunDense([]int64{2}); err != nil {
		t.Fatal(err)
	}
	if rn.NoteCostAt(k7) != c7 {
		t.Fatalf("notify 7 is branch-independent; stamp moved %d -> %d", c7, rn.NoteCostAt(k7))
	}
	if v, _ := rn.NoteAt(k3); v {
		t.Fatal("notify 3 must be false on the else branch")
	}
}

// TestRunDense1MatchesRunDense pins the batch entry point: for every VM
// program, BeginBatch1 + RunDense1(a) must produce the same cost, notes,
// per-notification stamps, and errors as RunDense([]int64{a}).
func TestRunDense1MatchesRunDense(t *testing.T) {
	lib := testLib()
	for _, src := range vmPrograms {
		p := MustParse(src)
		c := MustCompile(p)
		ref := NewRunner(c, lib)
		bat := NewRunner(c, lib)
		ref.MaxSteps, bat.MaxSteps = 1000, 1000
		if err := bat.BeginBatch1(); err != nil {
			t.Fatalf("%s: BeginBatch1: %v", p.Name, err)
		}
		args := []int64{0}
		for a := int64(-2); a < 14; a++ {
			args[0] = a
			refCost, refErr := ref.RunDense(args)
			batCost, batErr := bat.RunDense1(a)
			if (refErr == nil) != (batErr == nil) ||
				(refErr != nil && refErr.Error() != batErr.Error()) {
				t.Fatalf("%s(%d): error divergence: RunDense=%v RunDense1=%v", p.Name, a, refErr, batErr)
			}
			if refErr != nil {
				continue
			}
			if refCost != batCost {
				t.Fatalf("%s(%d): cost %d vs %d", p.Name, a, refCost, batCost)
			}
			for k, id := range c.noteIDs {
				rv, rok := ref.NoteAt(k)
				bv, bok := bat.NoteAt(k)
				if rv != bv || rok != bok || ref.NoteCostAt(k) != bat.NoteCostAt(k) {
					t.Fatalf("%s(%d): note id %d diverges (%v/%v ok %v/%v, stamp %d vs %d)",
						p.Name, a, id, rv, bv, rok, bok, ref.NoteCostAt(k), bat.NoteCostAt(k))
				}
			}
		}
	}
}

// TestBeginBatch1Arity pins that a multi-parameter program is refused at
// the batch boundary with RunDense's exact arity-error string.
func TestBeginBatch1Arity(t *testing.T) {
	p := MustParse(`func two(a, b) { notify 1 (a < b); }`)
	rn := NewRunner(MustCompile(p), testLib())
	err := rn.BeginBatch1()
	if err == nil {
		t.Fatal("BeginBatch1 accepted a 2-parameter program")
	}
	if _, refErr := rn.RunDense([]int64{7}); refErr == nil || refErr.Error() != err.Error() {
		t.Fatalf("arity error mismatch: BeginBatch1=%q RunDense=%v", err, refErr)
	}
}

// TestRunDense1ZeroAlloc extends the steady-state allocation pin to the
// batch entry point.
func TestRunDense1ZeroAlloc(t *testing.T) {
	lib := testLib()
	for _, src := range vmPrograms {
		p := MustParse(src)
		rn := NewRunner(MustCompile(p), lib)
		rn.MaxSteps = 1000
		if err := rn.BeginBatch1(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for a := int64(0); a < 4; a++ {
			if _, err := rn.RunDense1(a); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := rn.RunDense1(3); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RunDense1 allocates %v per run, want 0", p.Name, allocs)
		}
	}
}

// TestVMZeroAllocSteadyState pins the tentpole's allocation contract:
// RunDense performs no per-run allocations, guarded-move chains included.
func TestVMZeroAllocSteadyState(t *testing.T) {
	lib := testLib()
	for _, src := range append(vmPrograms[:len(vmPrograms):len(vmPrograms)], accumulatorLoop(8)) {
		p := MustParse(src)
		rn := NewRunner(MustCompile(p), lib)
		rn.MaxSteps = 1000
		args := []int64{0}
		// Warm up (first runs may fault pages or grow maps inside the test
		// library, which is not the VM's doing).
		for a := int64(0); a < 4; a++ {
			args[0] = a
			if _, err := rn.RunDense(args); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			args[0] = 3
			if _, err := rn.RunDense(args); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RunDense allocates %v per run, want 0", p.Name, allocs)
		}
	}
}
