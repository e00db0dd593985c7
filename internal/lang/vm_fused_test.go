package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fusedVars is the variable pool of the generated programs: r is the only
// parameter, so every other name may be read before it is bound.
var fusedVars = []string{"r", "a", "b", "c", "d", "l", "i"}

// byteSource hands out fuzz bytes as small choices; an exhausted source
// answers 0, so every byte string decodes to some program.
type byteSource struct{ b []byte }

func (s *byteSource) pick(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

func (s *byteSource) variable() string { return fusedVars[s.pick(len(fusedVars))] }

func (s *byteSource) local() string { return fusedVars[1+s.pick(len(fusedVars)-1)] }

// guardedMoves builds n `if (d OP src) { d := src; }` statements (the min
// form swaps the test's operands). A destination equal to the source is
// allowed: it is not a chain, and the generic lowering must agree too.
func guardedMoves(src string, dsts []string, op CmpOp, min bool) []Stmt {
	out := make([]Stmt, len(dsts))
	for k, d := range dsts {
		test := Cmp{Op: op, L: Var{d}, R: Var{src}}
		if min {
			test.L, test.R = test.R, test.L
		}
		out[k] = Cond{Test: test, Then: Assign{Var: d, E: Var{src}}, Else: Skip{}}
	}
	return out
}

// read decodes one fused shape that reads x: f(x), y + x*z, a
// cond-notify on x, or a guarded move with x as its source or its
// destination.
func (s *byteSource) read(x string) Stmt {
	switch s.pick(5) {
	case 0:
		return Assign{Var: s.local(), E: Call{Func: "f", Args: []IntExpr{Var{x}}}}
	case 1:
		return Assign{Var: s.local(), E: BinInt{Op: Add, L: Var{s.variable()}, R: BinInt{Op: Mul, L: Var{x}, R: Var{s.variable()}}}}
	case 2:
		return Cond{Test: Cmp{Op: Lt, L: Var{x}, R: IntConst{2}}, Then: Notify{ID: 3, Value: true}, Else: Notify{ID: 3, Value: false}}
	case 3:
		return SeqOf(guardedMoves(x, []string{s.local()}, Lt, false)...)
	default:
		return SeqOf(guardedMoves(s.variable(), []string{x}, Le, true)...)
	}
}

// stmt decodes one statement from the fused shapes: guarded-move runs of
// either form and operator, x := y ± k, x := y + z and x := y + z*w,
// one- and two-variable calls, constants, counted loops (nested up to
// depth), notifications and plain conditionals. Cases 8 to 10 aim at the
// must-be-bound analysis: operands read before they are bound, a variable
// bound in one arm only and then read, and a loop body that reads a
// variable before it binds it. A wrong "bound" verdict there reads a stale
// slot of the previous run, which diffProgram's reused runner exposes.
func (s *byteSource) stmt(depth int) Stmt {
	switch s.pick(11) {
	case 0, 1:
		src := s.variable()
		dsts := make([]string, 1+s.pick(5))
		for k := range dsts {
			dsts[k] = s.local()
		}
		op := Lt
		if s.pick(2) == 1 {
			op = Le
		}
		return SeqOf(guardedMoves(src, dsts, op, s.pick(2) == 1)...)
	case 2:
		op := Add
		if s.pick(2) == 1 {
			op = Sub
		}
		return Assign{Var: s.local(), E: BinInt{Op: op, L: Var{s.variable()}, R: IntConst{int64(s.pick(9)) - 4}}}
	case 3:
		if s.pick(2) == 1 {
			return Assign{Var: s.local(), E: Call{Func: "f", Args: []IntExpr{Var{s.variable()}}}}
		}
		return Assign{Var: s.local(), E: Call{Func: "g", Args: []IntExpr{Var{s.variable()}, Var{s.variable()}}}}
	case 4:
		if depth > 0 {
			ctr := s.local()
			body := []Stmt{}
			for k := 1 + s.pick(3); k > 0; k-- {
				body = append(body, s.stmt(depth-1))
			}
			body = append(body, Assign{Var: ctr, E: BinInt{Op: Add, L: Var{ctr}, R: IntConst{1}}})
			var bound IntExpr = IntConst{int64(s.pick(6))}
			if s.pick(2) == 1 {
				bound = Var{s.variable()}
			}
			return SeqOf(
				Assign{Var: ctr, E: IntConst{0}},
				While{Test: Cmp{Op: Lt, L: Var{ctr}, R: bound}, Body: SeqOf(body...)},
			)
		}
		fallthrough
	case 5:
		return Assign{Var: s.local(), E: IntConst{int64(s.pick(13)) - 4}}
	case 6:
		// One byte picks the note id, the constant's side and the
		// then-arm's polarity; its value mod 3 is the id alone.
		shape := s.pick(12)
		id := shape % 3
		test := Cmp{Op: CmpOp(s.pick(3)), L: Var{s.variable()}, R: IntConst{int64(s.pick(9)) - 2}}
		if shape/3%2 == 1 {
			test.L, test.R = test.R, test.L
		}
		v := shape < 6
		return Cond{Test: test, Then: Notify{ID: id, Value: v}, Else: Notify{ID: id, Value: !v}}
	case 7:
		// One byte picks the operator (its value mod 3) and whether the
		// test compares two variables, a variable and a constant, or a
		// constant and a variable; a constant takes a variable's byte.
		shape := s.pick(9)
		test := Cmp{Op: CmpOp(shape % 3), L: Var{s.variable()}}
		if shape < 3 {
			test.R = Var{s.variable()}
		} else {
			test.R = IntConst{int64(s.pick(len(fusedVars))) - 2}
		}
		if shape >= 6 {
			test.L, test.R = test.R, test.L
		}
		if depth == 0 {
			return Cond{Test: test, Then: s.stmt(0), Else: Skip{}}
		}
		return Cond{Test: test, Then: s.stmt(depth - 1), Else: s.stmt(depth - 1)}
	case 8:
		var sum IntExpr = Var{s.variable()}
		if s.pick(2) == 1 {
			sum = BinInt{Op: Mul, L: sum, R: Var{s.variable()}}
		}
		return Assign{Var: s.local(), E: BinInt{Op: Add, L: Var{s.variable()}, R: sum}}
	case 9:
		x := s.local()
		test := Cmp{Op: Lt, L: Var{"r"}, R: IntConst{int64(s.pick(9)) - 4}}
		return SeqOf(Cond{Test: test, Then: Assign{Var: x, E: Var{"r"}}, Else: s.stmt(0)}, s.read(x))
	default:
		x, ctr := s.local(), s.local()
		body := SeqOf(
			s.read(x),
			Assign{Var: x, E: BinInt{Op: Add, L: Var{ctr}, R: IntConst{1}}},
			Assign{Var: ctr, E: BinInt{Op: Add, L: Var{ctr}, R: IntConst{1}}},
		)
		return SeqOf(
			Assign{Var: ctr, E: IntConst{0}},
			While{Test: Cmp{Op: Lt, L: Var{ctr}, R: IntConst{int64(s.pick(4))}}, Body: body},
		)
	}
}

// decodeFused decodes fuzz bytes into a one-parameter program of at most 16
// top-level statements.
func decodeFused(data []byte) *Program {
	s := &byteSource{b: data}
	var stmts []Stmt
	for len(s.b) > 0 && len(stmts) < 16 {
		stmts = append(stmts, s.stmt(2))
	}
	return &Program{Name: "fz", Params: []string{"r"}, Body: SeqOf(stmts...)}
}

// FuzzVMMatchesInterp decodes fuzz bytes into programs built from the
// fused shapes and diffs the VM against the interpreter — notes, total
// cost, per-notification stamps and error strings — under the default and
// the prime cost model. Loops run under diffProgram's MaxSteps.
func FuzzVMMatchesInterp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x05\x04\x01\x02\x03\x04\x05\x00\x00"))
	// One seed per orientation of the tests: byte 6 opens a cond-notify
	// (shape, operator, variable, constant), byte 7 a conditional (shape,
	// variable, variable or constant, then each arm) and byte 5 a constant
	// assignment (variable, constant). Operators are 0 <, 1 =, 2 ≤.
	for _, seed := range [][]byte{
		// if (2 OP r) { notify j true } else { notify j false }
		{6, 3, 0, 0, 4, 6, 4, 1, 0, 4, 6, 5, 2, 0, 4},
		// if (r OP 2) { notify j false } else { notify j true }
		{6, 6, 0, 0, 4, 6, 7, 1, 0, 4, 6, 8, 2, 0, 4},
		// if (2 OP r) { notify j false } else { notify j true }
		{6, 9, 0, 0, 4, 6, 10, 1, 0, 4, 6, 11, 2, 0, 4},
		// if (r OP 3) { a := 5 } else { b := -2 }, then a test of a
		{7, 3, 0, 5, 5, 0, 9, 5, 1, 2, 7, 4, 0, 5, 5, 0, 9, 5, 1, 2, 7, 5, 0, 5, 5, 0, 9, 5, 1, 2, 6, 0, 0, 1, 4},
		// if (3 OP r) { a := 5 } else { b := -2 }, then a test of a
		{7, 6, 0, 5, 5, 0, 9, 5, 1, 2, 7, 7, 0, 5, 5, 0, 9, 5, 1, 2, 7, 8, 0, 5, 5, 0, 9, 5, 1, 2, 6, 0, 0, 1, 4},
		// if (r OP a) over two variables, for each operator
		{5, 0, 6, 7, 0, 0, 1, 5, 1, 9, 5, 2, 2, 7, 1, 0, 1, 5, 1, 9, 5, 2, 2, 7, 2, 0, 1, 5, 1, 9, 5, 2, 2},
		// Byte 8 opens x := y + z or y + z*w (z, a multiply byte, w, x, y):
		// after b := 5, a := b + r*r and c := a + b read bound operands,
		// and after a cond-notify on c, d := a + l reads an unbound l.
		{5, 1, 9, 8, 0, 1, 0, 0, 2, 8, 2, 0, 2, 1, 6, 0, 0, 3, 4, 8, 5, 0, 3, 1},
		// Byte 9 opens if (r < k) { x := r } else { S }, then a read of x
		// (x, k, S, the read): f(a) after an else that binds b; b*r after
		// one that binds a; a cond-notify on c, bound in both arms; a move
		// from d; a move into l.
		{9, 0, 6, 5, 1, 9, 0, 2, 9, 1, 6, 5, 0, 9, 1, 3, 0, 0, 9, 2, 6, 5, 2, 9, 2,
			9, 3, 6, 5, 0, 9, 3, 0, 9, 4, 6, 5, 0, 9, 4, 0},
		// Byte 10 opens i := 0; while (i < k) { read x; x := i + 1; i := i + 1 }
		// (x, i, the read, k): a loop that runs zero times, a := 5, a loop
		// reading a bound before it, then one reading b bound only in its body.
		{10, 0, 5, 0, 1, 0, 5, 0, 9, 10, 0, 5, 0, 1, 3, 10, 1, 5, 0, 2, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		p := decodeFused(data)
		diffProgram(t, p, nil)
		diffProgram(t, p, primeCostModel())
	})
}

// randomChainProgram generates a guarded-move-heavy program: accumulators
// initialised from r (one in eight left unbound), one or two sources, and
// a run of moves whose source, form and operator change now and then and
// which an unrelated statement sometimes breaks, then one notification per
// accumulator.
func randomChainProgram(rng *rand.Rand, name string) string {
	accs := []string{"a", "b", "c", "d", "e"}
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(r) {\n", name)
	for _, a := range accs {
		if rng.Intn(8) != 0 {
			fmt.Fprintf(&b, "  %s := r + %d;\n", a, rng.Intn(9)-4)
		}
	}
	fmt.Fprintf(&b, "  l := f(r);\n  k := g(r, %d);\n", rng.Intn(5)-2)
	src, op, min := "l", "<", false
	for n := 1 + rng.Intn(8); n > 0; n-- {
		if rng.Intn(4) == 0 {
			src = []string{"l", "k"}[rng.Intn(2)]
			op = []string{"<", "<="}[rng.Intn(2)]
			min = rng.Intn(2) == 1
		}
		if rng.Intn(6) == 0 {
			fmt.Fprintf(&b, "  k := k - %d;\n", rng.Intn(3))
		}
		d := accs[rng.Intn(len(accs))]
		if min {
			fmt.Fprintf(&b, "  if (%s %s %s) { %s := %s; }\n", src, op, d, d, src)
		} else {
			fmt.Fprintf(&b, "  if (%s %s %s) { %s := %s; }\n", d, op, src, d, src)
		}
	}
	for j, a := range accs {
		fmt.Fprintf(&b, "  notify %d (%s < %d);\n", j, a, rng.Intn(9)-2)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestVMRandomMoveChains diffs 200 seeded random chain programs under both
// cost models.
func TestVMRandomMoveChains(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for n := 0; n < 200; n++ {
		src := randomChainProgram(rng, fmt.Sprintf("rc%d", n))
		diffOne(t, src, nil)
		diffOne(t, src, primeCostModel())
	}
}

// accumulatorLoop is Ω's fused max-accumulator loop over k queries: one
// shared call per iteration, the first query's update, the increment, then
// the other k-1 updates.
func accumulatorLoop(k int) string {
	var b strings.Builder
	b.WriteString("func acc(r) {\n  n := f(r); i := 0;\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "  m%d := %d;\n", j, j)
	}
	b.WriteString("  while (i < n) {\n    l := g(r, i);\n    if (m0 < l) { m0 := l; }\n    i := i + 1;\n")
	for j := 1; j < k; j++ {
		fmt.Fprintf(&b, "    if (m%d < l) { m%d := l; }\n", j, j)
	}
	b.WriteString("  }\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "  notify %d (m%d > %d);\n", j, j, 40+j)
	}
	b.WriteString("}\n")
	return b.String()
}

// sumLoop is Ω's fused sum loop over k queries, stock Q3's shape: one
// shared call per iteration, the first query's updates s0 := s0 + c and
// q0 := q0 + c*c, the increment, then the other k-1 queries' updates.
func sumLoop(k int) string {
	var b strings.Builder
	b.WriteString("func sum(r) {\n  n := f(r); i := 0;\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "  s%d := 0; q%d := %d;\n", j, j, j)
	}
	b.WriteString("  while (i < n) {\n    c := g(r, i);\n    s0 := s0 + c;\n    q0 := q0 + c * c;\n    i := i + 1;\n")
	for j := 1; j < k; j++ {
		fmt.Fprintf(&b, "    s%d := s%d + c;\n    q%d := q%d + c * c;\n", j, j, j, j)
	}
	b.WriteString("  }\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "  notify %d (s%d < q%d);\n", j, j, j)
	}
	b.WriteString("}\n")
	return b.String()
}

// benchmarkLoop times one run of a generated loop program (64 iterations)
// for k = 1, 8 and 32 queries; steady state allocates nothing.
func benchmarkLoop(b *testing.B, loop func(k int) string) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rn := NewRunner(MustCompile(MustParse(loop(k))), testLib())
			if err := rn.BeginBatch1(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := rn.RunDense1(32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunnerAccumulatorLoop times the fused max-accumulator loop.
func BenchmarkRunnerAccumulatorLoop(b *testing.B) { benchmarkLoop(b, accumulatorLoop) }

// BenchmarkRunnerSumLoop times the fused sum loop.
func BenchmarkRunnerSumLoop(b *testing.B) { benchmarkLoop(b, sumLoop) }
