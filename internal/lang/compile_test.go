package lang

import (
	"math/rand"
	"testing"
)

func TestCompiledMatchesInterp(t *testing.T) {
	lib := testLib()
	progs := []string{
		`func a(r) { x := f(r); notify 1 (x > 2); }`,
		`func b(r) {
		   i := 0; s := 0;
		   while (i < 10) { s := s + g(r, i); i := i + 1; }
		   notify 1 (s > 50);
		   notify 2 (s > 100);
		 }`,
		`func c(r) {
		   if (r > 3) { x := r * 2; notify 1 (x == 8); } else { notify 1 false; }
		 }`,
	}
	for _, src := range progs {
		p := MustParse(src)
		comp := MustCompile(p)
		runner := NewRunner(comp, lib)
		for arg := int64(-3); arg <= 8; arg++ {
			in := NewInterp(lib)
			want, err1 := in.Run(p, []int64{arg})
			notes, noteCosts, cost, err2 := runner.Run([]int64{arg})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s(%d): err mismatch %v vs %v", p.Name, arg, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !want.Notes.Equal(notes) {
				t.Fatalf("%s(%d): notes %v vs %v", p.Name, arg, want.Notes, notes)
			}
			if want.Cost != cost {
				t.Fatalf("%s(%d): cost %d vs %d", p.Name, arg, want.Cost, cost)
			}
			for id, c := range want.NoteCosts {
				if noteCosts[id] != c {
					t.Fatalf("%s(%d): note cost[%d] %d vs %d", p.Name, arg, id, c, noteCosts[id])
				}
			}
		}
	}
}

func TestCompiledUnboundVariable(t *testing.T) {
	p := MustParse(`func u(r) { x := y + 1; notify 1 (x > 0); }`)
	runner := NewRunner(MustCompile(p), testLib())
	if _, _, _, err := runner.Run([]int64{1}); err == nil {
		t.Fatal("unbound variable must error")
	}
}

func TestCompiledMaxSteps(t *testing.T) {
	p := MustParse(`func d() { i := 0; while (0 <= i) { i := i + 1; } }`)
	runner := NewRunner(MustCompile(p), testLib())
	runner.MaxSteps = 100
	if _, _, _, err := runner.Run(nil); err == nil {
		t.Fatal("runaway loop must be caught")
	}
}

func TestCompiledReuseAcrossRuns(t *testing.T) {
	// Frames are reset between runs: a variable defined in run 1 must not
	// leak into run 2. x and y are bound by the fused slot-writing ops
	// (x := r + 4, y := g(r, x)) in one arm only, so the guarded move
	// after the branch takes the generic, checking path, and run 2 must
	// fail on x exactly as the interpreter does.
	p := MustParse(`
func l(r) {
  m := 0;
  if (r > 0) { x := r + 4; y := g(r, x); notify 1 (y == 6); } else { notify 1 false; }
  if (m < x) { m := x; }
  notify 2 (m == 5);
}`)
	runner := NewRunner(MustCompile(p), testLib())
	for _, arg := range []int64{1, -1, 1} {
		notes, _, _, err := runner.Run([]int64{arg})
		if arg > 0 {
			if err != nil || notes[1] != true || notes[2] != true {
				t.Fatalf("run with r=%d: %v %v", arg, notes, err)
			}
			continue
		}
		_, ierr := NewInterp(testLib()).Run(p, []int64{arg})
		const want = `lang: unbound variable "x"`
		if err == nil || err.Error() != want || ierr == nil || ierr.Error() != want {
			t.Fatalf("run with r=%d: VM %v, interpreter %v, want %q", arg, err, ierr, want)
		}
	}
}

// TestCompiledRandomAgreement fuzzes agreement between the two evaluators
// using the language's own generator style.
func TestCompiledRandomAgreement(t *testing.T) {
	lib := testLib()
	rng := rand.New(rand.NewSource(31))
	exprs := []string{
		"r + 1", "r * r - 3", "f(r)", "g(r, 2) - f(r + 1)", "0 - r",
	}
	tests := []string{"%s > 0", "%s == 4", "%s <= r", "!(%s < 2)"}
	for trial := 0; trial < 60; trial++ {
		e := exprs[rng.Intn(len(exprs))]
		cond := tests[rng.Intn(len(tests))]
		src := "func z(r) { v := " + e + "; notify 1 (" + sprintf(cond, "v") + "); }"
		p := MustParse(src)
		runner := NewRunner(MustCompile(p), lib)
		for arg := int64(-4); arg <= 4; arg++ {
			in := NewInterp(lib)
			want, err1 := in.Run(p, []int64{arg})
			notes, _, cost, err2 := runner.Run([]int64{arg})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s(%d): errors differ", src, arg)
			}
			if err1 == nil && (!want.Notes.Equal(notes) || want.Cost != cost) {
				t.Fatalf("%s(%d): %v/%d vs %v/%d", src, arg, want.Notes, want.Cost, notes, cost)
			}
		}
	}
}

func sprintf(format, arg string) string {
	out := ""
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 's' {
			out += arg
			i++
			continue
		}
		out += string(format[i])
	}
	return out
}
