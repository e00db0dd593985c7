// Command consolidate merges UDFs written in the paper's formal language
// and reports cost statistics.
//
// Usage:
//
//	consolidate [-stats] [-verify] file.udf...
//	consolidate -demo
//
// Each input file holds one or more `func name(params) { … }` programs; all
// programs across all files are consolidated into one, which is printed to
// stdout. With -verify, library calls are given a deterministic synthetic
// interpretation and the consolidation is validated on sampled inputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/cost"
	"consolidation/internal/lang"
)

var (
	flagStats   = flag.Bool("stats", false, "print rule and solver statistics")
	flagVerify  = flag.Bool("verify", false, "validate soundness and cost on sampled inputs")
	flagDemo    = flag.Bool("demo", false, "run on the paper's Section 2 example instead of files")
	flagEmbed   = flag.Int("max-embed", consolidate.DefaultMaxEmbedSize, "If3/If4 embedding budget in AST nodes (loop-free code only; code holding a loop is never embedded)")
	flagCPUProf = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	flagMemProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
)

const demo = `
func f1(fi) {
  name := airlineName(fi);
  if (name == 1) { notify 1 true; } else { notify 1 (name == 2); }
}
func f2(fi) {
  if (price(fi) >= 200) { notify 2 false; }
  else { notify 2 (airlineName(fi) == 1); }
}
`

func main() {
	flag.Parse()
	if *flagCPUProf != "" {
		f, err := os.Create(*flagCPUProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *flagMemProf != "" {
		defer func() {
			f, err := os.Create(*flagMemProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "consolidate:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "consolidate:", err)
			}
		}()
	}
	var progs []*lang.Program
	if *flagDemo {
		ps, err := lang.ParseAll(demo)
		if err != nil {
			fatal(err)
		}
		progs = ps
	} else {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: consolidate [-stats] [-verify] file.udf...  (or -demo)")
			os.Exit(2)
		}
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			ps, err := lang.ParseAll(string(src))
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			progs = append(progs, ps...)
		}
	}
	if len(progs) == 0 {
		fatal(fmt.Errorf("no programs found"))
	}

	opts := consolidate.DefaultOptions()
	opts.MaxEmbedSize = *flagEmbed
	start := time.Now()
	merged, ms, err := consolidate.All(progs, opts, false, true)
	if err != nil {
		fatal(err)
	}
	fmt.Print(lang.Format(merged))

	if *flagStats {
		fmt.Fprintf(os.Stderr, "\nprograms: %d   pairs: %d   levels: %d   time: %s\n",
			ms.Programs, ms.Pairs, ms.Levels, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "rules: If1=%d If2=%d If3=%d If4=%d If5=%d Loop2=%d Loop3=%d seq=%d simplifiedAssigns=%d\n",
			ms.Rules.If1, ms.Rules.If2, ms.Rules.If3, ms.Rules.If4, ms.Rules.If5,
			ms.Rules.Loop2, ms.Rules.Loop3, ms.Rules.LoopsSequential, ms.Rules.AssignsSimplified)
		fmt.Fprintf(os.Stderr, "SMT queries: %d   cache hit-rate: %.1f%%   output size: %d AST nodes\n",
			ms.SMTQueries, ms.CacheHitRate*100, ms.OutputSize)
		fmt.Fprintf(os.Stderr, "solver: %d theory checks, %d pivots, %d/%d probes answered, %d unknowns, %d lemma hits, %d capped cores\n",
			ms.Solver.TheoryChecks, ms.Solver.Pivots, ms.Solver.ProbesAnswered, ms.Solver.Probes, ms.Solver.Unknowns,
			ms.Solver.LemmaHits, ms.Solver.CoreCapped)
		fmt.Fprintf(os.Stderr, "SMT cache: %d entries, %d lookups, %d hits (%d renamed), %d stores, %d evictions, %d contended locks\n",
			ms.Cache.Entries, ms.Cache.Lookups, ms.Cache.Hits, ms.Cache.Renamed, ms.Cache.Stores, ms.Cache.Evictions, ms.Cache.Contended)
		seq := cost.Sequential(progs, nil, nil)
		one := cost.Program(merged, nil, nil)
		fmt.Fprintf(os.Stderr, "static cost: sequential %s, consolidated %s\n",
			boundString(seq), boundString(one))
	}

	if *flagVerify {
		lib := syntheticLibrary(progs)
		inputs := sampleInputs(len(progs[0].Params), 60)
		if err := consolidate.Verify(progs, merged, lib, nil, inputs, false); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Fprintln(os.Stderr, "verified: identical notifications, cost never exceeds sequential execution")
	}
}

// syntheticLibrary gives every called function a deterministic pseudo-random
// interpretation, enough to exercise both branches of typical filters.
func syntheticLibrary(progs []*lang.Program) *lang.MapLibrary {
	lib := &lang.MapLibrary{}
	seen := map[string]bool{}
	for _, p := range progs {
		for fn := range lang.CalledFuncs(p.Body) {
			if seen[fn] {
				continue
			}
			seen[fn] = true
			name := fn
			lib.Define(fn, 50, func(args []int64) (int64, error) {
				h := uint64(1469598103934665603)
				for i := 0; i < len(name); i++ {
					h = (h ^ uint64(name[i])) * 1099511628211
				}
				for _, a := range args {
					h = (h ^ uint64(a)) * 1099511628211
				}
				return int64(h % 401), nil
			})
		}
	}
	return lib
}

func sampleInputs(arity, n int) [][]int64 {
	var out [][]int64
	for i := 0; i < n; i++ {
		in := make([]int64, arity)
		for j := range in {
			in[j] = int64((i*31+j*17)%40 - 5)
		}
		out = append(out, in)
	}
	return out
}

func boundString(b cost.Bound) string {
	if !b.MaxKnown {
		return fmt.Sprintf("[%d, ∞)", b.Min)
	}
	if b.Exact() {
		return fmt.Sprintf("%d", b.Min)
	}
	return fmt.Sprintf("[%d, %d]", b.Min, b.Max)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "consolidate:", err)
	os.Exit(1)
}
