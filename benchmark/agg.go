package main

import (
	"math/rand"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

const aggWindow = 12 // observations per station window

// runAgg measures agg-windows: keyed windowed aggregations over the weather
// observation stream, merged into shared traversals.
func runAgg(name string, cfg runConfig) (*result, error) {
	res := newResult(name, cfg.traced)
	var ws *data.WeatherStream
	var aggs []*lang.AggProgram
	setups, err := repeatSetup(cfg, func() (err error) {
		ws = data.GenWeatherStream(data.WeatherStreamConfig{Cities: cfg.size.stations, Hours: cfg.size.hours, Seed: cfg.seed})
		aggs, err = queries.GenAgg("weather", cfg.size.aggN, aggWindow, true, programSeed)
		return
	})
	if err != nil {
		return nil, err
	}
	res.Records, res.UDFs = ws.NumRecords(), len(aggs)

	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ws
	warm := copts
	warm.Cache = smt.NewCache(0)
	tr := newTracer(name)
	root := tr.start("agg-windows", -1, 0)

	var groups []*consolidate.AggGroup
	coldMerge := func() (time.Duration, error) {
		cold := copts
		cold.Cache = smt.NewCache(0)
		id := tr.start("consolidate.MergeAggs", root, 0)
		d, err := timed(func() (err error) { groups, err = consolidate.MergeAggs(aggs, cold); return })
		tr.stop(id)
		return d, res.call(err)
	}
	var last *engine.ConsolidatedAggResult
	call := func(workers int) (time.Duration, error) {
		id := tr.start("engine.AggregateConsolidated", root, 0)
		d, err := timed(func() (err error) {
			last, err = engine.AggregateConsolidated(ws, aggs, warm, engine.Options{Workers: workers})
			return
		})
		tr.stop(id)
		return d, res.call(err)
	}
	// One discarded warm-up iteration.
	cold0, err := coldMerge()
	if err != nil {
		return nil, err
	}
	call0, err := call(1)
	if err != nil {
		return nil, err
	}

	var colds, calls []float64
	reps := coldReps(cold0, call0)
	err = closedLoop(cfg.seconds, cfg.size.iters, func() error {
		for k := 0; k < reps; k++ {
			c, err := coldMerge()
			if err != nil {
				return err
			}
			colds = append(colds, c.Seconds())
		}
		d, err := call(1)
		if err != nil {
			return err
		}
		calls = append(calls, d.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reference: every aggregation on its own pass, compared in full, and
	// the interpreter on a sample of stations.
	var many *engine.AggResult
	id := tr.start("engine.AggregateMany", root, 0)
	manyWall, err := timed(func() (err error) { many, err = engine.AggregateMany(ws, aggs, engine.Options{Workers: 1}); return })
	tr.stop(id)
	if res.call(err) != nil {
		return nil, err
	}
	res.verdicts(diffAgg(many, &last.AggResult))
	res.verdicts(interpAggSample(ws, aggs, &last.AggResult, rand.New(rand.NewSource(cfg.seed)), cfg.size.sample/100+1))

	if !cfg.traced {
		res.setTiming("setup_s", setups)
		res.setTiming("consolidate_s", colds)
		res.Timings["call_wall_s"] = summarise(calls)
		res.Metrics["pass_rec_per_s"] = ratio(float64(res.Records), median(calls))
		res.Metrics["cost_speedup"] = ratio(float64(many.UDFCost), float64(last.UDFCost))
		return res, nil
	}
	m := res.Metrics
	m["data.gen_s"] = median(setups)
	m["consolidate.merge_aggs_s"] = median(colds)
	m["engine.pass_speedup"] = ratio(manyWall.Seconds(), median(calls))
	m["engine.batches"] = float64(last.Batches)
	m["engine.agg_fold_cost"] = float64(last.FoldCost)
	m["engine.agg_emit_cost"] = float64(last.EmitCost)
	m["engine.agg_key_cost"] = float64(last.KeyCost)
	m["engine.agg_windows"] = float64(last.Windows)
	m["engine.agg_udf_share"] = ratio(last.UDFTime.Seconds(), last.TotalTime.Seconds())
	m["lang.vm_cost_per_rec"] = ratio(float64(last.UDFCost), float64(res.Records))
	for _, g := range groups {
		if g.Homomorphic {
			m["engine.agg_hom_groups"]++
		}
		m["consolidate.merged_size"] += float64(g.Stats.OutputSize)
		m["smt.queries"] += float64(g.Stats.SMTQueries)
	}

	// A decode-only sweep of the stream, for the share of the pass that is
	// record decode; one more call for its allocation; one with two workers.
	lib := ws.Clone()
	decode := tr.do("sweep.decode_cold", root, 0, func() {
		for i := 0; i < lib.NumRecords(); i++ {
			lib.SetRecord(i)
		}
	})
	m["data.decode_full_ns_per_rec"] = ratio(float64(decode.Nanoseconds()), float64(res.Records))
	before := totalAlloc()
	if _, err := call(1); err != nil {
		return nil, err
	}
	m["engine.alloc_bytes_per_rec"] = ratio(float64(totalAlloc()-before), float64(res.Records))
	w2, err := call(2)
	if err != nil {
		return nil, err
	}
	m["engine.scale_w2"] = ratio(median(calls), w2.Seconds())
	tr.stop(root)
	m["trace_overhead_share"] = tr.overheadShare()
	res.spans = tr.spans
	return res, nil
}

// diffAgg compares two aggregation results window by window and returns how
// many verdicts were compared and how many differ; an output whose window
// count or keys differ counts every one of its verdicts.
func diffAgg(want, got *engine.AggResult) (checked, differing int) {
	for i, w := range want.Outputs {
		checked += len(w.Vals)
		if i >= len(got.Outputs) {
			differing += len(w.Vals)
			continue
		}
		g := got.Outputs[i]
		if g.Windows != w.Windows || len(g.Vals) != len(w.Vals) || len(g.Keys) != len(w.Keys) {
			differing += len(w.Vals)
			continue
		}
		for j := range w.Vals {
			if g.Vals[j] != w.Vals[j] || w.Keys != nil && g.Keys[j/len(w.IDs)] != w.Keys[j/len(w.IDs)] {
				differing++
			}
		}
	}
	return checked, differing
}

// interpAggSample re-evaluates every aggregation for a seeded sample of
// stations with lang.NewInterp: the station's observations, in stream order,
// are folded twelve at a time from the declared initial accumulators and
// emitted, and the verdicts must equal the station's windows in got, which
// the engine lists per key in the same order (closed windows as they close,
// then the trailing partial one).
func interpAggSample(ws *data.WeatherStream, aggs []*lang.AggProgram, got *engine.AggResult, rng *rand.Rand, stations int) (checked, differing int) {
	lib := ws.Clone()
	in := lang.NewInterp(lib)
	keys := map[int64]bool{}
	for len(keys) < stations {
		lib.SetRecord(rng.Intn(lib.NumRecords()))
		k, err := lib.Call("cityOf", []int64{0})
		if err != nil {
			return 1, 1
		}
		keys[k] = true
	}
	for key := range keys {
		var recs []int
		for i := 0; i < lib.NumRecords(); i++ {
			lib.SetRecord(i)
			if k, _ := lib.Call("cityOf", []int64{int64(i)}); k == key {
				recs = append(recs, i)
			}
		}
		for a, agg := range aggs {
			out := got.Outputs[a]
			ids := agg.EmitIDs()
			var wins []int // the key's windows in out, in emit order
			for w, k := range out.Keys {
				if k == key {
					wins = append(wins, w)
				}
			}
			nWin := 0
			for lo := 0; lo < len(recs); lo += aggWindow {
				hi := lo + aggWindow
				if hi > len(recs) {
					hi = len(recs)
				}
				env := lang.Env{}
				for _, acc := range agg.Accs {
					env[acc.Name] = acc.Init
				}
				ok := true
				for _, i := range recs[lo:hi] {
					lib.SetRecord(i)
					env[agg.Param] = int64(i)
					if _, _, err := in.RunStmt(agg.Fold, env); err != nil {
						ok = false
					}
				}
				delete(env, agg.Param)
				notes, _, err := in.RunStmt(agg.Emit, env)
				ok = ok && err == nil && nWin < len(wins)
				for j, id := range ids {
					checked++
					v, said := notes[id]
					want := int8(-1)
					if said && v {
						want = 1
					} else if said {
						want = 0
					}
					if !ok || out.At(wins[nWin], j) != want {
						differing++
					}
				}
				nWin++
			}
			if nWin != len(wins) {
				checked++
				differing++
			}
		}
	}
	return checked, differing
}
