package main

import (
	"fmt"
	"math/rand"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

// partSpec names one dataset and the UDF family run over it. The scan and
// merge workloads are lists of parts: one for the scans and merge-calls, two
// (weather, stock) for merge-loops.
type partSpec struct {
	domain, family string
	n              int
	gated          bool // 1%-selectivity admission clause on followerCount
}

func scanParts(n int, gated bool) func(sizes) []partSpec {
	return func(sizes) []partSpec { return []partSpec{{"twitter", "Q2", n, gated}} }
}

func denseParts(sz sizes) []partSpec { return scanParts(sz.denseN, false)(sz) }

func mixParts(sz sizes) []partSpec { return []partSpec{{"news", "Mix", sz.mixN, false}} }

func loopParts(sz sizes) []partSpec {
	return []partSpec{{"weather", "Q3", sz.weatherN, false}, {"stock", "Q3", sz.stockN, false}}
}

// part is a generated partSpec: the records and the programs.
type part struct {
	spec partSpec
	ds   engine.RecordLibrary
	udfs []*lang.Program
	// warm backs consolidation and guard synthesis inside the timed engine
	// calls; the warm-up call fills it.
	warm *smt.Cache
}

func genDataset(domain string, seed int64, sz sizes) (engine.RecordLibrary, error) {
	switch domain {
	case "twitter":
		return data.GenTwitter(data.TwitterConfig{Tweets: sz.tweets, Seed: seed}), nil
	case "news":
		cfg := data.DefaultNewsConfig()
		cfg.Articles, cfg.Seed = sz.articles, seed
		return data.GenNews(cfg), nil
	case "weather":
		cfg := data.DefaultWeatherConfig()
		cfg.Cities, cfg.Seed = sz.cities, seed
		return data.GenWeather(cfg), nil
	case "stock":
		return data.GenStock(data.StockConfig{Companies: sz.companies, Days: sz.days, Seed: seed}), nil
	}
	return nil, fmt.Errorf("no dataset for domain %q", domain)
}

func genPart(spec partSpec, seed int64, sz sizes) (*part, error) {
	ds, err := genDataset(spec.domain, seed, sz)
	if err != nil {
		return nil, err
	}
	udfs, err := queries.Gen(spec.domain, spec.family, spec.n, programSeed)
	if err != nil {
		return nil, err
	}
	if spec.gated {
		tw, ok := ds.(*data.Twitter)
		if !ok {
			return nil, fmt.Errorf("domain %q has no gating field", spec.domain)
		}
		udfs = queries.Selective(udfs, "followerCount", tw.FollowerQuantile, 0.01, programSeed)
	}
	return &part{spec: spec, ds: ds, udfs: udfs, warm: smt.NewCache(0)}, nil
}

// setupParts generates the parts, several times for a steady setup_s.
func setupParts(specs []partSpec, cfg runConfig) ([]*part, []float64, error) {
	var parts []*part
	walls, err := repeatSetup(cfg, func() error {
		parts = parts[:0]
		for _, spec := range specs {
			p, err := genPart(spec, cfg.seed, cfg.size)
			if err != nil {
				return err
			}
			parts = append(parts, p)
		}
		return nil
	})
	return parts, walls, err
}

func (p *part) copts(cache *smt.Cache) consolidate.Options {
	o := consolidate.DefaultOptions()
	o.FuncCoster = p.ds
	o.Cache = cache
	return o
}

// coldConsolidate is one from-scratch consolidate.All with a fresh SMT
// cache, as a job submitted for the first time pays it.
func (p *part) coldConsolidate() (*consolidate.MultiStats, error) {
	_, ms, err := consolidate.All(p.udfs, p.copts(smt.NewCache(0)), true, true)
	return ms, err
}

// engineCall is one whole WhereConsolidated call: warm-cache consolidation,
// guard synthesis and the pass.
func (p *part) engineCall(workers int) (*engine.ConsolidatedResult, error) {
	return engine.WhereConsolidated(p.ds, p.udfs, p.copts(p.warm),
		engine.Options{Workers: workers, PrefilterCache: p.warm})
}

// mergeCounts are the consolidation outcomes that must not vary between
// repetitions of one run.
type mergeCounts struct{ pairs, levels, size, queries int }

func countsOf(ms *consolidate.MultiStats) mergeCounts {
	return mergeCounts{ms.Pairs, ms.Levels, ms.OutputSize, ms.SMTQueries}
}

// coldAll consolidates every part from scratch and returns the summed wall.
// The consolidation counts must equal those of the first repetition.
func coldAll(res *result, parts []*part, want []mergeCounts) (time.Duration, error) {
	var wall time.Duration
	for i, p := range parts {
		var ms *consolidate.MultiStats
		d, err := timed(func() (err error) { ms, err = p.coldConsolidate(); return })
		if res.call(err) != nil {
			return 0, err
		}
		wall += d
		if want[i] == (mergeCounts{}) {
			want[i] = countsOf(ms)
		} else if got := countsOf(ms); got != want[i] {
			// A repetition that merges differently is a failed call.
			res.Failed++
			fmt.Printf("  %s/%s: consolidation counts %+v differ from first repetition %+v\n", p.spec.domain, p.spec.family, got, want[i])
		}
	}
	return wall, nil
}

// callAll makes one engine call per part and returns the summed wall and
// the results.
func callAll(res *result, parts []*part) (time.Duration, []*engine.ConsolidatedResult, error) {
	var wall time.Duration
	var out []*engine.ConsolidatedResult
	for _, p := range parts {
		var cr *engine.ConsolidatedResult
		d, err := timed(func() (err error) { cr, err = p.engineCall(1); return })
		if res.call(err) != nil {
			return 0, nil, err
		}
		wall += d
		out = append(out, cr)
	}
	return wall, out, nil
}

func totalRecords(parts []*part) (n int) {
	for _, p := range parts {
		n += p.ds.NumRecords()
	}
	return n
}

func totalUDFs(parts []*part) (n int) {
	for _, p := range parts {
		n += len(p.udfs)
	}
	return n
}

// runFilter measures a scan or merge workload. Untraced it reports the
// end-to-end metrics; traced it replays the stages and the SMT queries from
// outside (replay.go) for the per-layer metrics. Both check every merged
// verdict against the unmerged operator and a sample against the
// interpreter.
func runFilter(specsOf func(sizes) []partSpec) func(string, runConfig) (*result, error) {
	return func(name string, cfg runConfig) (*result, error) {
		res := newResult(name, cfg.traced)
		parts, setups, err := setupParts(specsOf(cfg.size), cfg)
		if err != nil {
			return nil, err
		}
		res.Records, res.UDFs = totalRecords(parts), totalUDFs(parts)
		want := make([]mergeCounts, len(parts))

		// One discarded warm-up iteration: it fills the warm caches and
		// grows the heap to its working size.
		cold0, err := coldAll(res, parts, want)
		if err != nil {
			return nil, err
		}
		call0, _, err := callAll(res, parts)
		if err != nil {
			return nil, err
		}

		// One timed iteration: the cold consolidations, then the engine
		// calls. The traced run needs only one iteration's results to hold
		// the replay to; the replay times its own untraced calls.
		var colds, calls []float64
		var last []*engine.ConsolidatedResult
		loopSeconds, iters := cfg.seconds, cfg.size.iters
		if cfg.traced {
			loopSeconds, iters = 0, 1
		}
		reps := coldReps(cold0, call0)
		err = closedLoop(loopSeconds, iters, func() error {
			for k := 0; k < reps; k++ {
				cold, err := coldAll(res, parts, want)
				if err != nil {
					return err
				}
				colds = append(colds, cold.Seconds())
			}
			call, out, err := callAll(res, parts)
			if err != nil {
				return err
			}
			calls, last = append(calls, call.Seconds()), out
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Reference: the unmerged operator over the same records, in full.
		var manyCost, mergedCost int64
		var manyWall time.Duration
		rng := rand.New(rand.NewSource(cfg.seed))
		for i, p := range parts {
			var many *engine.Result
			d, err := timed(func() (err error) { many, err = engine.WhereMany(p.ds, p.udfs, engine.Options{Workers: 1}); return })
			if res.call(err) != nil {
				return nil, err
			}
			manyWall += d
			res.verdicts(diffBools(many.Bools, last[i].Bools))
			res.verdicts(interpSample(p, last[i].Bools, rng, cfg.size.sample))
			if err := res.call(verifySample(p, last[i].Merged, rng, cfg.size.verifies)); err != nil {
				fmt.Printf("  %s/%s: Verify: %v\n", p.spec.domain, p.spec.family, err)
			}
			manyCost += many.UDFCost
			mergedCost += last[i].UDFCost
		}

		if !cfg.traced {
			res.setTiming("setup_s", setups)
			res.setTiming("consolidate_s", colds)
			res.Timings["call_wall_s"] = summarise(calls)
			res.Metrics["pass_rec_per_s"] = ratio(float64(res.Records), median(calls))
			res.Metrics["cost_speedup"] = ratio(float64(manyCost), float64(mergedCost))
			return res, nil
		}
		res.Metrics["data.gen_s"] = median(setups)
		if err := replayFilter(res, parts, last, manyWall.Seconds(), cfg); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// verifySample hands a few seeded records to consolidate.Verify, which
// checks Definition 1 with the interpreter, the VM against the interpreter
// on the merged program, and the guard's soundness.
func verifySample(p *part, merged *lang.Program, rng *rand.Rand, n int) error {
	lib := p.ds.Clone()
	for k := 0; k < n; k++ {
		i := rng.Intn(lib.NumRecords())
		lib.SetRecord(i)
		if err := consolidate.Verify(p.udfs, merged, lib, nil, [][]int64{{int64(i)}}, true); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}
