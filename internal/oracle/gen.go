// Package oracle is the repository's randomized correctness backbone: a
// seeded generator for well-typed Figure 1 programs and batches of input
// records, plus differential and metamorphic checks that pit every layer
// of the system against an independent reference:
//
//   - Definition 1: the consolidated program notifies exactly the queries
//     each original UDF would, with identical verdicts, on every probed
//     input (consolidate.All vs the cost-annotated interpreter).
//   - Cost theorem (§2): the consolidated run never costs more than the
//     sequential sum of the originals.
//   - Incremental equality: Registry.Add/Remove under random churn traces
//     produces output byte-identical to consolidate.All from scratch.
//   - SMT soundness: internal/smt verdicts cross-checked against the
//     brute-force small-domain model search (smt.RefSearch); a decided
//     verdict contradicted by a verified model is always a bug, Unknown
//     is always allowed.
//
// Every failure carries the generating seed and can be shrunk (Shrink) to
// a minimal reproducer. cmd/oracle drives campaigns from the command
// line; go test -fuzz targets (FuzzConsolidateEquivalence and FuzzSMTChecks
// here) feed the same checks from the fuzzing engine.
package oracle

import (
	"fmt"
	"math/rand"

	"consolidation/internal/lang"
)

// Mix selects the predicate/expression flavour of generated programs.
type Mix int

// Mixes. UF-heavy programs lean on library calls (congruence and
// memoization pressure); LIA-heavy programs lean on arithmetic over
// parameters (simplex and branch-entailment pressure).
const (
	MixBalanced Mix = iota
	MixUFHeavy
	MixLIAHeavy
)

// GenOptions tunes the program generator.
type GenOptions struct {
	// Programs is the batch size (queries consolidated together).
	Programs int
	// Params is the shared parameter list; batches destined for the
	// registry check must share it across all programs (they do: the
	// generator uses one list for the whole batch).
	Params []string
	// TopStmts is the number of top-level statements before the
	// notification tail; Depth bounds conditional/loop nesting.
	TopStmts int
	Depth    int
	// Mix selects the expression flavour.
	Mix Mix
	// Adversarial enables the shapes that historically break rewrite
	// systems: dead branches guarded by contradictions, tautological
	// guards, shared sub-expressions drawn from a tiny batch-wide pool
	// (maximal cross-query memoization), and shared branch tests
	// (maximal cross-query entailment).
	Adversarial bool
	// PartialNotify lets roughly a fifth of the programs notify on only
	// some paths, exercising the calculus away from the
	// always-notify-once fast path.
	PartialNotify bool
}

// DefaultGenOptions are small enough to consolidate in about a
// millisecond and rich enough to reach every rewrite rule.
func DefaultGenOptions() GenOptions {
	return GenOptions{
		Programs:      3,
		Params:        []string{"a", "b"},
		TopStmts:      3,
		Depth:         2,
		Mix:           MixBalanced,
		Adversarial:   true,
		PartialNotify: true,
	}
}

// Batch is one generated test case: programs over a shared parameter
// list plus the input records to probe them with.
type Batch struct {
	Seed   int64
	Opts   GenOptions
	Progs  []*lang.Program
	Inputs [][]int64
}

// Clone returns a deep-enough copy for the shrinker: program and input
// slices are fresh, program bodies are shared (rewrites replace them).
func (b *Batch) Clone() *Batch {
	out := *b
	out.Progs = make([]*lang.Program, len(b.Progs))
	for i, p := range b.Progs {
		q := *p
		out.Progs[i] = &q
	}
	out.Inputs = append([][]int64(nil), b.Inputs...)
	return &out
}

// Lib is the fixed library generated programs call into: deterministic,
// side-effect free, with bounded outputs (so values stay far from int64
// overflow even through loops and products) and distinct abstract costs
// (so the cost theorem check is not vacuous).
func Lib() *lang.MapLibrary {
	lib := &lang.MapLibrary{}
	lib.Define("u", 25, func(a []int64) (int64, error) { return (3*a[0]-7)%101 - 20, nil })
	lib.Define("w", 15, func(a []int64) (int64, error) { return -a[0] + 2, nil })
	lib.Define("sq", 30, func(a []int64) (int64, error) { return (a[0]*a[0])%31 - 15, nil })
	lib.Define("mix2", 40, func(a []int64) (int64, error) { return (3*a[0]-a[1]+5)%53 - 26, nil })
	return lib
}

type funcSig struct {
	name  string
	arity int
}

var libSigs = []funcSig{{"u", 1}, {"w", 1}, {"sq", 1}, {"mix2", 2}}

// gen carries one batch generation.
type gen struct {
	rng *rand.Rand
	o   GenOptions
	// locals of the program under construction, all zero-initialised up
	// front so reads of variables assigned only in untaken branches stay
	// bound (generated programs must never fault).
	locals []string
	// sharedArgs and sharedTests are the batch-wide adversarial pools:
	// drawing call arguments and branch tests from a handful of shapes
	// makes distinct programs collide on sub-expressions, which is
	// exactly what memoization (If rules) and entailment pruning feed on.
	sharedArgs  []lang.IntExpr
	sharedTests []lang.BoolExpr
}

// Generate derives a batch deterministically from the seed.
func Generate(seed int64, o GenOptions) *Batch {
	if o.Programs <= 0 {
		o.Programs = 3
	}
	if len(o.Params) == 0 {
		o.Params = []string{"a", "b"}
	}
	if o.TopStmts <= 0 {
		o.TopStmts = 3
	}
	if o.Depth <= 0 {
		o.Depth = 2
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), o: o}
	g.buildPools()
	b := &Batch{Seed: seed, Opts: o}
	for i := 0; i < o.Programs; i++ {
		b.Progs = append(b.Progs, g.program(fmt.Sprintf("p%d", i)))
	}
	b.Inputs = g.inputs()
	return b
}

func (g *gen) buildPools() {
	p0 := lang.Var{Name: g.o.Params[0]}
	g.sharedArgs = []lang.IntExpr{
		p0,
		lang.IntConst{Value: int64(1 + g.rng.Intn(3))},
		lang.BinInt{Op: lang.Add, L: p0, R: lang.IntConst{Value: 1}},
	}
	if len(g.o.Params) > 1 {
		p1 := lang.Var{Name: g.o.Params[1]}
		g.sharedArgs = append(g.sharedArgs, p1,
			lang.BinInt{Op: lang.Sub, L: p1, R: lang.IntConst{Value: 2}})
	}
	for i := 0; i < 3; i++ {
		c := int64(g.rng.Intn(7) - 3)
		op := []lang.CmpOp{lang.Lt, lang.Le, lang.Eq}[g.rng.Intn(3)]
		g.sharedTests = append(g.sharedTests, lang.Cmp{Op: op, L: p0, R: lang.IntConst{Value: c}})
	}
}

func (g *gen) param() lang.IntExpr {
	return lang.Var{Name: g.o.Params[g.rng.Intn(len(g.o.Params))]}
}

func (g *gen) local() lang.IntExpr {
	if len(g.locals) == 0 {
		return g.param()
	}
	return lang.Var{Name: g.locals[g.rng.Intn(len(g.locals))]}
}

func (g *gen) newLocal() string {
	v := fmt.Sprintf("v%d", len(g.locals))
	g.locals = append(g.locals, v)
	return v
}

// callExpr draws a library call; under Adversarial the arguments mostly
// come from the shared pool so calls coincide across programs.
func (g *gen) callExpr(depth int) lang.IntExpr {
	sig := libSigs[g.rng.Intn(len(libSigs))]
	args := make([]lang.IntExpr, sig.arity)
	for i := range args {
		if g.o.Adversarial && g.rng.Intn(4) != 0 {
			args[i] = g.sharedArgs[g.rng.Intn(len(g.sharedArgs))]
		} else {
			args[i] = g.intExpr(depth - 1)
		}
	}
	return lang.Call{Func: sig.name, Args: args}
}

func (g *gen) intExpr(depth int) lang.IntExpr {
	callW := 2
	switch g.o.Mix {
	case MixUFHeavy:
		callW = 5
	case MixLIAHeavy:
		callW = 0
	}
	k := g.rng.Intn(7 + callW)
	switch {
	case k == 0:
		return lang.IntConst{Value: int64(g.rng.Intn(21) - 10)}
	case k <= 2:
		return g.param()
	case k == 3:
		return g.local()
	case k <= 6:
		if depth <= 0 {
			return g.local()
		}
		op := []lang.IntOp{lang.Add, lang.Sub, lang.Mul}[g.rng.Intn(3)]
		l := g.intExpr(depth - 1)
		r := g.intExpr(depth - 1)
		if op == lang.Mul && g.rng.Intn(3) != 0 {
			// Mostly multiply by small constants: products of products are
			// where generated values would race toward overflow, a regime
			// the paper's integer semantics does not model.
			r = lang.IntConst{Value: int64(g.rng.Intn(5) - 2)}
		}
		return lang.BinInt{Op: op, L: l, R: r}
	default:
		if depth <= 0 {
			return g.param()
		}
		return g.callExpr(depth)
	}
}

func (g *gen) boolExpr(depth int) lang.BoolExpr {
	if g.o.Adversarial && g.rng.Intn(8) == 0 {
		// Shared test: the same comparison appears in several programs.
		return g.sharedTests[g.rng.Intn(len(g.sharedTests))]
	}
	if depth <= 0 || g.rng.Intn(3) == 0 {
		op := []lang.CmpOp{lang.Lt, lang.Eq, lang.Le}[g.rng.Intn(3)]
		return lang.Cmp{Op: op, L: g.intExpr(1), R: g.intExpr(1)}
	}
	switch g.rng.Intn(4) {
	case 0:
		return lang.Not{E: g.boolExpr(depth - 1)}
	default:
		op := []lang.BoolOp{lang.And, lang.Or}[g.rng.Intn(2)]
		return lang.BinBool{Op: op, L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	}
}

// contradiction and tautology build guards whose truth is static but not
// syntactically obvious — dead-branch and always-branch pressure.
func (g *gen) contradiction() lang.BoolExpr {
	x := g.local()
	if g.rng.Intn(2) == 0 {
		return lang.Cmp{Op: lang.Lt, L: x, R: x} // x < x
	}
	c := g.boolExpr(0)
	return lang.BinBool{Op: lang.And, L: c, R: lang.Not{E: c}} // c ∧ ¬c
}

func (g *gen) tautology() lang.BoolExpr {
	x := g.local()
	if g.rng.Intn(2) == 0 {
		return lang.Cmp{Op: lang.Le, L: x, R: x} // x ≤ x
	}
	c := g.boolExpr(0)
	return lang.BinBool{Op: lang.Or, L: c, R: lang.Not{E: c}} // c ∨ ¬c
}

func (g *gen) stmts(n, depth int) []lang.Stmt {
	var out []lang.Stmt
	for i := 0; i < n; i++ {
		roll := g.rng.Intn(10)
		switch {
		case roll <= 4: // assignment
			out = append(out, lang.Assign{Var: g.newLocal(), E: g.intExpr(2)})
		case roll <= 6 && depth > 0: // conditional
			test := g.boolExpr(1)
			if g.o.Adversarial {
				switch g.rng.Intn(6) {
				case 0:
					test = g.contradiction()
				case 1:
					test = g.tautology()
				}
			}
			out = append(out, lang.Cond{
				Test: test,
				Then: lang.SeqOf(g.stmts(1+g.rng.Intn(2), depth-1)...),
				Else: lang.SeqOf(g.stmts(g.rng.Intn(2), depth-1)...),
			})
		case roll <= 8 && depth > 0: // bounded loop, both orientations
			iv := g.newLocal()
			body := g.stmts(1+g.rng.Intn(2), 0)
			if g.rng.Intn(2) == 0 {
				// count-down: iv := k; while (0 < iv) { …; iv := iv - 1 }
				body = append(body, lang.Assign{Var: iv,
					E: lang.BinInt{Op: lang.Sub, L: lang.Var{Name: iv}, R: lang.IntConst{Value: 1}}})
				out = append(out,
					lang.Assign{Var: iv, E: lang.IntConst{Value: int64(1 + g.rng.Intn(5))}},
					lang.While{
						Test: lang.Cmp{Op: lang.Lt, L: lang.IntConst{Value: 0}, R: lang.Var{Name: iv}},
						Body: lang.SeqOf(body...),
					})
			} else {
				// count-up: iv := 0; while (iv < k) { …; iv := iv + 1 }
				k := int64(1 + g.rng.Intn(5))
				body = append(body, lang.Assign{Var: iv,
					E: lang.BinInt{Op: lang.Add, L: lang.Var{Name: iv}, R: lang.IntConst{Value: 1}}})
				out = append(out,
					lang.Assign{Var: iv, E: lang.IntConst{Value: 0}},
					lang.While{
						Test: lang.Cmp{Op: lang.Lt, L: lang.Var{Name: iv}, R: lang.IntConst{Value: k}},
						Body: lang.SeqOf(body...),
					})
			}
		default:
			out = append(out, lang.Assign{Var: g.newLocal(), E: g.intExpr(1)})
		}
	}
	return out
}

// program emits one query: a random prelude, then a notification tail
// that broadcasts id 1 at most once on every path (exactly once unless
// PartialNotify drew a partial shape). All queries notify id 1 — the
// consolidation drivers renumber per query, and the registry requires a
// single id per program.
func (g *gen) program(name string) *lang.Program {
	g.locals = nil
	body := g.stmts(g.o.TopStmts, g.o.Depth)

	test := g.boolExpr(2)
	var tail lang.Stmt
	switch roll := g.rng.Intn(10); {
	case g.o.PartialNotify && roll == 0:
		// Partial: notify only when the guard holds.
		tail = lang.Cond{
			Test: test,
			Then: lang.Notify{ID: 1, Value: g.rng.Intn(2) == 0},
			Else: lang.Skip{},
		}
	case roll <= 2:
		// Nested: two guards, three notify sites.
		tail = lang.Cond{
			Test: test,
			Then: lang.Cond{
				Test: g.boolExpr(1),
				Then: lang.Notify{ID: 1, Value: true},
				Else: lang.Notify{ID: 1, Value: false},
			},
			Else: lang.Notify{ID: 1, Value: false},
		}
	default:
		tail = lang.Cond{
			Test: test,
			Then: lang.Notify{ID: 1, Value: true},
			Else: lang.Notify{ID: 1, Value: false},
		}
	}
	body = append(body, tail)

	init := make([]lang.Stmt, 0, len(g.locals))
	for _, v := range g.locals {
		init = append(init, lang.Assign{Var: v, E: lang.IntConst{Value: 0}})
	}
	return &lang.Program{
		Name:   name,
		Params: append([]string(nil), g.o.Params...),
		Body:   lang.SeqOf(append(init, body...)...),
	}
}

// inputs probes a dense small grid (adjacent integers expose off-by-one
// divergence) plus a few random outliers.
func (g *gen) inputs() [][]int64 {
	grid := []int64{-3, -1, 0, 1, 2, 4}
	var out [][]int64
	switch len(g.o.Params) {
	case 1:
		for _, a := range grid {
			out = append(out, []int64{a})
		}
	default:
		for _, a := range grid {
			for _, b := range grid {
				in := []int64{a, b}
				for len(in) < len(g.o.Params) {
					in = append(in, int64(g.rng.Intn(9)-4))
				}
				out = append(out, in)
			}
		}
	}
	for i := 0; i < 5; i++ {
		in := make([]int64, len(g.o.Params))
		for j := range in {
			in[j] = int64(g.rng.Intn(17) - 8)
		}
		out = append(out, in)
	}
	return out
}
