// Command figures regenerates the tables of the paper's evaluation that
// EXPERIMENTS.md records:
//
//	figures 9       [-domain all] [-family all] [-n 50] [-scale 0.05]
//	figures 10      [-counts 10,25,50,100,150,200,250,300] [-scale 0.02]
//	figures latency [-domain twitter] [-family Q2] [-n 10] [-scale 0.02]
//	    each also   [-seed 1] [-workers 0] [-cpuprofile f] [-memprofile f]
//
// Figure 9 is the speedup of whereConsolidated over whereMany per domain and
// query family, then the §6.3 in-text summary; Figure 10 the scalability with
// the number of UDFs on the News Mix workload; latency the §8 table of every
// query's mean notification latency under both operators. Scale is relative
// to the paper's dataset sizes; only the total speedup depends on it, since
// consolidation is a fixed cost that amortises on a realistically sized job.
// Every experiment checks that the two operators select the same records: the
// exit status is 1 if they ever disagree and 2 on a usage error. Timings to
// compare between commits come from `go run ./benchmark`, not from here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

// outcome is one experiment: the same UDFs over the same dataset under
// both operators.
type outcome struct {
	domain, family string
	many, cons     engine.Result // verdict rows dropped once compared (agree)
	consolidate    time.Duration // compile time of the merged program
	hit            float64       // share of its SMT cache lookups that hit
	// udf is the paper's dark bar, the ratio of UDF execution times; cost the
	// same ratio in the abstract cost units of Figure 2; total the light bar,
	// the whole job with consolidation time included.
	udf, cost, total float64
	agree            bool // both operators selected identical records
	// multi is the consolidation's rule counts and merged program size.
	multi consolidate.MultiStats
}

// dataset generates a domain's dataset at a scale of the paper's full size.
func dataset(domain string, scale float64, seed int64) (engine.RecordLibrary, error) {
	scaleN := func(n, min int) int { return max(int(float64(n)*scale), min) }
	switch domain {
	case "weather":
		cfg := data.DefaultWeatherConfig()
		cfg.Cities = scaleN(cfg.Cities, 10)
		cfg.Seed += seed
		return data.GenWeather(cfg), nil
	case "flight":
		cfg := data.DefaultFlightConfig()
		cfg.Airlines = scaleN(cfg.Airlines, 10)
		cfg.Seed += seed
		return data.GenFlight(cfg), nil
	case "news":
		cfg := data.DefaultNewsConfig()
		cfg.Articles = scaleN(cfg.Articles, 50)
		cfg.Seed += seed
		return data.GenNews(cfg), nil
	case "twitter":
		cfg := data.DefaultTwitterConfig()
		cfg.Tweets = scaleN(cfg.Tweets, 50)
		cfg.Seed += seed
		return data.GenTwitter(cfg), nil
	case "stock":
		cfg := data.DefaultStockConfig()
		cfg.Companies = scaleN(cfg.Companies, 5)
		cfg.Days = scaleN(cfg.Days, 30)
		cfg.Seed += seed
		return data.GenStock(cfg), nil
	}
	return nil, fmt.Errorf("unknown domain %q", domain)
}

// run executes one experiment: n generated UDFs of one family under
// whereMany and under whereConsolidated.
func run(domain, family string, n int, scale float64, seed int64, workers int) (*outcome, error) {
	ds, err := dataset(domain, scale, seed)
	if err != nil {
		return nil, err
	}
	udfs, err := queries.Gen(domain, family, n, 100+seed)
	if err != nil {
		return nil, err
	}
	eopts := engine.Options{Workers: workers}
	many, err := engine.WhereMany(ds, udfs, eopts)
	if err != nil {
		return nil, fmt.Errorf("whereMany: %w", err)
	}
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ds
	// One query cache for all pairwise merges: the divide-and-conquer levels
	// repeat many entailment queries, and unlike a shared solver the cache
	// keeps the pair workers parallel.
	copts.Cache = smt.NewCache(0)
	cons, err := engine.WhereConsolidated(ds, udfs, copts, eopts)
	if err != nil {
		return nil, fmt.Errorf("whereConsolidated: %w", err)
	}
	o := &outcome{
		domain: domain, family: family, many: *many, cons: cons.Result,
		consolidate: cons.ConsolidateTime, hit: cons.Multi.CacheHitRate,
		udf:   ratio(float64(many.UDFTime), float64(cons.UDFTime)),
		cost:  ratio(float64(many.UDFCost), float64(cons.UDFCost)),
		total: ratio(float64(many.TotalTime), float64(cons.TotalTime+cons.ConsolidateTime)),
		agree: engine.SameResults(many, &cons.Result),
		multi: *cons.Multi,
	}
	o.many.Bools, o.cons.Bools = nil, nil
	return o, nil
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// meanLatency averages the per-query mean notification latencies of a pass.
func meanLatency(m *engine.Result) float64 {
	var sum float64
	for q := 0; q < m.UDFs; q++ {
		sum += m.MeanLatency(q)
	}
	return ratio(sum, float64(m.UDFs))
}

func (o *outcome) row() string {
	return fmt.Sprintf("%-8s %-4s  n=%-3d rec=%-6d  udf×%5.1f cost×%7.3f total×%5.1f  cons=%8s hit=%4.0f%%  size=%5d  ok=%v",
		o.domain, o.family, o.many.UDFs, o.many.Records,
		o.udf, o.cost, o.total,
		o.consolidate.Round(time.Millisecond), o.hit*100, o.multi.OutputSize, o.agree)
}

// experiments resolves -domain and -family ("all" or one name each) to the
// domain/family pairs to run, in the paper's order.
func experiments(domain, family string) ([][2]string, error) {
	doms := queries.Domains()
	if domain != "all" {
		doms = []string{domain}
	}
	var out [][2]string
	var known []string
	for _, d := range doms {
		fams := queries.Families(d)
		if fams == nil {
			return nil, fmt.Errorf("unknown -domain %q; domains: %s", d, strings.Join(queries.Domains(), " "))
		}
		known = append(known, d+": "+strings.Join(fams, " "))
		for _, f := range fams {
			if family == "all" || family == f {
				out = append(out, [2]string{d, f})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown -family %q; families: %s", family, strings.Join(known, "; "))
	}
	return out, nil
}

func main() { os.Exit(figures(os.Args[1:], os.Stdout, os.Stderr)) }

// figures runs one mode and returns the exit status.
func figures(args []string, out, errw io.Writer) int {
	fail := func(status int, format string, a ...any) int {
		fmt.Fprintf(errw, "figures: "+format+"\n", a...)
		return status
	}
	if len(args) == 0 {
		args = []string{""}
	}
	mode := args[0]
	fs := flag.NewFlagSet("figures "+mode, flag.ContinueOnError)
	fs.SetOutput(errw)
	domain, family, counts, n, scale := "news", "Mix", "", 0, 0.02 // Figure 10's fixed workload
	switch mode {
	case "9":
		fs.StringVar(&domain, "domain", "all", "domain to run, or 'all'")
		fs.StringVar(&family, "family", "all", "query family to run, or 'all'")
		fs.IntVar(&n, "n", 50, "UDFs per family (paper: 50)")
		scale = 0.05
	case "10":
		fs.StringVar(&counts, "counts", "10,25,50,100,150,200,250,300", "comma-separated UDF counts")
	case "latency":
		fs.StringVar(&domain, "domain", "twitter", "dataset domain")
		fs.StringVar(&family, "family", "Q2", "query family")
		fs.IntVar(&n, "n", 10, "number of queries")
	default:
		return fail(2, "unknown mode %q; usage: figures 9|10|latency [flags]   (-h lists a mode's flags)", mode)
	}
	fs.Float64Var(&scale, "scale", scale, "dataset scale relative to the paper's size")
	seed := fs.Int64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	exps, err := experiments(domain, family)
	ns := []int{n}
	if mode == "10" {
		ns = nil
		for _, tok := range strings.Split(counts, ",") {
			c, _ := strconv.Atoi(strings.TrimSpace(tok)) // 0 on error: rejected below
			ns = append(ns, c)
		}
	}
	switch {
	case err != nil:
		return fail(2, "%v", err)
	case fs.NArg() > 0:
		return fail(2, "unexpected argument %q", fs.Arg(0))
	case mode == "latency" && len(exps) != 1:
		return fail(2, "latency takes one -domain and one -family")
	case slices.Min(ns) <= 0:
		return fail(2, "UDF counts (-n, -counts) must be positive integers")
	case scale <= 0:
		return fail(2, "-scale must be positive")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fail(1, "%v", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fail(1, "%v", err)
			}
		}()
	}

	switch mode {
	case "9":
		fmt.Fprintln(out, "Figure 9 — speedup of whereConsolidated over whereMany")
		fmt.Fprintf(out, "(%d UDFs per family, dataset scale %.2f, seed %d)\n\n", n, scale, *seed)
		fmt.Fprintln(out, "domain   fam   UDFs  records  speedups(udf-time, udf-cost, total)    consolidation  cache-hit  merged  agree")
	case "10":
		fmt.Fprintln(out, "Figure 10 — scalability with the number of UDFs (News Mix workload)")
		fmt.Fprintf(out, "(dataset scale %.2f, seed %d)\n\n", scale, *seed)
		fmt.Fprintf(out, "%6s  %14s %14s  %14s %14s  %14s  %9s  %s\n",
			"UDFs", "many-UDF", "many-total", "cons-UDF", "cons-total", "consolidation", "cache-hit", "agree")
	}
	var done []*outcome
	for _, e := range exps {
		for _, c := range ns {
			o, err := run(e[0], e[1], c, scale, *seed, *workers)
			if err != nil {
				return fail(1, "%s/%s n=%d: %v", e[0], e[1], c, err)
			}
			switch mode {
			case "9":
				fmt.Fprintln(out, o.row())
			case "10":
				rnd := func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
				fmt.Fprintf(out, "%6d  %14s %14s  %14s %14s  %14s  %8.1f%%  ok=%v\n", c,
					rnd(o.many.UDFTime), rnd(o.many.TotalTime), rnd(o.cons.UDFTime), rnd(o.cons.TotalTime),
					rnd(o.consolidate), o.hit*100, o.agree)
			case "latency":
				printLatency(out, o)
			}
			if !o.agree {
				return fail(1, "%s/%s n=%d: operators disagree", e[0], e[1], c)
			}
			done = append(done, o)
		}
	}
	if mode == "9" {
		printSummary(out, done, n)
	}
	return 0
}

// printSummary prints the §6.3 in-text numbers next to the paper's: UDF
// speedups 2.6–24.2× (avg 8.4×), total 1.4–23.1× (avg 6.0×), consolidation
// ≈ 0.3 s for 50 UDFs, ≈ 0.4 % of total query execution time.
func printSummary(out io.Writer, done []*outcome, n int) {
	fmt.Fprintln(out, "\nsummary (paper reference in parentheses):")
	col := func(label, ref string, get func(*outcome) float64) {
		xs := make([]float64, len(done))
		sum := 0.0
		for i, o := range done {
			xs[i] = get(o)
			sum += xs[i]
		}
		fmt.Fprintf(out, "  %-14s %5.1fx – %5.1fx, avg %5.1fx   (%s)\n",
			label, slices.Min(xs), slices.Max(xs), sum/float64(len(xs)), ref)
	}
	col("UDF speedup", "paper: 2.6x – 24.2x, avg 8.4x", func(o *outcome) float64 { return o.udf })
	col("cost speedup", "abstract cost, Figure 2; machine-independent", func(o *outcome) float64 { return o.cost })
	col("total speedup", "paper: 1.4x – 23.1x, avg 6.0x", func(o *outcome) float64 { return o.total })
	var consSum, jobSum time.Duration
	for _, o := range done {
		consSum += o.consolidate
		jobSum += o.consolidate + o.cons.TotalTime
	}
	fmt.Fprintf(out, "  consolidation  avg %s per %d UDFs, %.1f%% of total   (paper: ≈0.3 s, 0.4%%)\n",
		(consSum / time.Duration(len(done))).Round(time.Millisecond), n, 100*ratio(float64(consSum), float64(jobSum)))
}

// printLatency prints the §8 table: consolidation optimises completion time
// and broadcasts each result as soon as it is computed, so per-query latency
// usually improves too — but a query that ran first under whereMany may now
// wait for shared computation scheduled ahead of its notification.
func printLatency(out io.Writer, o *outcome) {
	many, cons := &o.many, &o.cons
	fmt.Fprintf(out, "mean notification latency per record (cost units), %s/%s, %d queries\n\n", o.domain, o.family, many.UDFs)
	fmt.Fprintf(out, "%6s %14s %16s %9s\n", "query", "whereMany", "whereConsolidated", "ratio")
	var worse int
	var manyMax, consMax float64
	for q := 0; q < many.UDFs; q++ {
		m, c := many.MeanLatency(q), cons.MeanLatency(q)
		mark := ""
		if c > m {
			worse++
			mark = "  (slower)"
		}
		manyMax, consMax = max(manyMax, m), max(consMax, c)
		fmt.Fprintf(out, "%6d %14.1f %16.1f %8.1fx%s\n", q, m, c, ratio(m, c), mark)
	}
	fmt.Fprintf(out, "\nqueries with increased latency: %d of %d\n", worse, many.UDFs)
	fmt.Fprintf(out, "mean over queries:             whereMany %.1f, whereConsolidated %.1f\n", meanLatency(many), meanLatency(cons))
	fmt.Fprintf(out, "completion (max over queries): whereMany %.1f, whereConsolidated %.1f\n\n", manyMax, consMax)
	fmt.Fprintln(out, o.row())
}
