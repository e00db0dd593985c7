package invariant_test

import (
	"fmt"
	"testing"

	"consolidation/internal/invariant"
	"consolidation/internal/lang"
	"consolidation/internal/oracle"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

// fusedLoop is one Infer input as consolidate's loop rule builds it: the
// statements before the loops, which put the context at the loop heads,
// and the fused loop while (e1 ∧ … ∧ ek) { S1; …; Sk }.
type fusedLoop struct {
	name      string
	generated bool // from oracle-generated programs
	pre       []lang.Stmt
	guard     lang.BoolExpr
	body      lang.Stmt
}

// renameLocals renames p's locals apart with prefix, as the merge tree
// does its leaves.
func renameLocals(p *lang.Program, prefix string) lang.Stmt {
	params := map[string]bool{}
	for _, prm := range p.Params {
		params[prm] = true
	}
	return lang.RenameVars(p.Body, func(v string) string {
		if params[v] {
			return v
		}
		return prefix + v
	})
}

// fuse renames each program's locals apart (q<k>_) and fuses the programs'
// first top-level loops; false when a program has none.
func fuse(name string, progs []*lang.Program) (fusedLoop, bool) {
	l := fusedLoop{name: name}
	var bodies []lang.Stmt
	for k, p := range progs {
		body := renameLocals(p, fmt.Sprintf("q%d_", k))
		found := false
		for _, s := range lang.Flatten(body) {
			if w, ok := s.(lang.While); ok {
				if l.guard == nil {
					l.guard = w.Test
				} else {
					l.guard = lang.BinBool{Op: lang.And, L: l.guard, R: w.Test}
				}
				bodies = append(bodies, w.Body)
				found = true
				break
			}
			l.pre = append(l.pre, s)
		}
		if !found {
			return fusedLoop{}, false
		}
	}
	l.body = lang.SeqOf(bodies...)
	return l, true
}

// fuseMix fuses the first top-level loops of the programs that have one,
// with the loop-free programs' statements (their notifies aside, each
// renamed apart with p<k>_) run first, so the loop heads carry their call
// facts as a mixed batch's merged prefix does; false without two loops.
func fuseMix(name string, progs []*lang.Program) (fusedLoop, bool) {
	var pre []lang.Stmt
	var loopy []*lang.Program
	for k, p := range progs {
		body := lang.Flatten(renameLocals(p, fmt.Sprintf("p%d_", k)))
		hasLoop := false
		for _, s := range body {
			_, w := s.(lang.While)
			hasLoop = hasLoop || w
		}
		if hasLoop {
			loopy = append(loopy, p)
			continue
		}
		for _, s := range body {
			if _, n := s.(lang.Notify); !n {
				pre = append(pre, s)
			}
		}
	}
	if len(loopy) < 2 {
		return fusedLoop{}, false
	}
	l, ok := fuse(name, loopy)
	l.pre = append(pre, l.pre...)
	return l, ok
}

// headContext is the context at the loop heads on a new solver with a
// solving context attached, as a consolidation pair has.
func (l fusedLoop) headContext() *sym.Context {
	ctx := sym.NewContext(smt.New())
	sc := smt.NewSolvingContext()
	sc.BeginRun(ctx.Solver())
	ctx.UseSolvingContext(sc)
	for _, s := range l.pre {
		ctx.ApplyStmt(s)
	}
	return ctx
}

// exactnessLoops fuses pairs, fours and eights of weather, stock and news
// Q3 UDFs and the loops of news Mix spans — the loop families of the
// merge-loops and merge-calls workloads — and pairs of oracle-generated
// programs with top-level loops.
func exactnessLoops(t *testing.T) []fusedLoop {
	var out []fusedLoop
	for _, domain := range []string{"weather", "stock", "news"} {
		progs, err := queries.Gen(domain, "Q3", 8, 20140609)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range [][2]int{{0, 2}, {2, 4}, {0, 4}, {0, 8}} {
			if l, ok := fuse(fmt.Sprintf("%s Q3 %v", domain, span), progs[span[0]:span[1]]); ok {
				out = append(out, l)
			}
		}
	}
	// news Mix, the merge-calls family: Q3 loops after Q1/Q2 call facts.
	mix, err := queries.Gen("news", "Mix", 16, 20140609)
	if err != nil {
		t.Fatal(err)
	}
	mixLoops := 0
	for _, span := range [][2]int{{0, 4}, {4, 12}, {0, 8}, {8, 16}} {
		if l, ok := fuseMix(fmt.Sprintf("news Mix %v", span), mix[span[0]:span[1]]); ok {
			out = append(out, l)
			mixLoops++
		}
	}
	if mixLoops < 3 {
		t.Fatalf("only %d news Mix spans have two loops to fuse", mixLoops)
	}
	seeds := 120
	if testing.Short() {
		seeds = 40
	}
	opts := oracle.DefaultGenOptions()
	opts.Programs = 6
	for seed := int64(1); seed <= int64(seeds); seed++ {
		b := oracle.Generate(seed, opts)
		for i := 0; i+1 < len(b.Progs); i += 2 {
			if l, ok := fuse(fmt.Sprintf("oracle seed %d programs %d,%d", seed, i, i+1), b.Progs[i:i+2]); ok {
				l.generated = true
				out = append(out, l)
			}
		}
	}
	return out
}

// TestCounterexamplePruningIsExact holds Infer to inferRef, the entry
// filter and round loop without pruning, element for element, and requires pruning to have
// saved queries somewhere, so that the comparison is not vacuous.
func TestCounterexamplePruningIsExact(t *testing.T) {
	loops := exactnessLoops(t)
	var oracleLoops, pruned, refQueries int
	for _, l := range loops {
		ctx, refCtx := l.headContext(), l.headContext()
		got := invariant.Infer(ctx, l.guard, l.body)
		want := invariant.InferRef(refCtx, l.guard, l.body)
		if len(got) != len(want) {
			t.Errorf("%s: Infer kept %d candidates, inferRef %d:\n  got  %s\n  want %s",
				l.name, len(got), len(want), invariant.String(got), invariant.String(want))
			continue
		}
		for i := range got {
			if !lang.EqualBool(got[i], want[i]) {
				t.Errorf("%s: invariant %d is %v, inferRef has %v", l.name, i, got[i], want[i])
			}
		}
		if l.generated {
			oracleLoops++
		}
		pruned += refCtx.Solver().Stats.Queries - ctx.Solver().Stats.Queries
		refQueries += refCtx.Solver().Stats.Queries
	}
	if oracleLoops < 10 {
		t.Errorf("only %d oracle-generated fused loops; the generator no longer makes enough top-level loops", oracleLoops)
	}
	if pruned <= 0 {
		t.Fatalf("pruning saved no query over %d loops (%d reference queries)", len(loops), refQueries)
	}
	t.Logf("%d fused loops (%d oracle-generated): pruning saved %d of %d queries", len(loops), oracleLoops, pruned, refQueries)
}
