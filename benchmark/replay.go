package main

import (
	"fmt"
	"sort"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/logic"
	"consolidation/internal/prefilter"
	"consolidation/internal/smt"
	"consolidation/internal/sym"
)

// stageTimes are the stage totals of one replayed pass. Each is a
// difference of two sweeps over the same batch (see replayPass), so the
// five stages of the engine's sequence add up to the replayed pass.
type stageTimes struct {
	liteDecode, guard, fullDecode, vm, publish time.Duration
	// manyVM is the unmerged reference: every UDF's own VM run per record.
	manyVM time.Duration
}

func (st *stageTimes) add(o stageTimes) {
	st.liteDecode += o.liteDecode
	st.guard += o.guard
	st.fullDecode += o.fullDecode
	st.vm += o.vm
	st.publish += o.publish
	st.manyVM += o.manyVM
}

// staged is the part of an engine call's wall the five stages account for.
func (st stageTimes) staged() time.Duration {
	return st.liteDecode + st.guard + st.fullDecode + st.vm + st.publish
}

// passCounts are the pass outcomes that must equal the engine's.
type passCounts struct {
	cost, guardCost int64
	admitted        int
}

// replayPass re-drives the engine's stage sequence over one part with public
// calls only: per 256-record batch, lite decode → guard → full decode →
// merged VM → publish. A stage cannot be timed per record without the timer
// showing in the result, and SetRecord must precede every RunDense1, so each
// batch is swept several times, each sweep running one stage more than the
// one before, with one timer pair per sweep; a stage's time is the
// difference between two sweeps. Decode sweeps run twice: the first pays for
// bringing the batch into cache and is reported as the decode; the second is
// what the later sweeps, which find the batch cached, are compared with.
// Publishing is swept on its own, so the VM's time is what is left of the
// full sweep after the cached decode and the publish.
func replayPass(tr *tracer, parent, rep int, p *part, mergedC *lang.Compiled, guard *prefilter.Guard) ([][]bool, stageTimes, passCounts, error) {
	var st stageTimes
	var pc passCounts
	lib := p.ds.Clone()
	n, nUDFs := lib.NumRecords(), len(p.udfs)

	rn := lang.NewRunner(mergedC, lib)
	if err := rn.BeginBatch1(); err != nil {
		return nil, st, pc, err
	}
	noteIdx := make([]int, nUDFs)
	for q := range noteIdx {
		k, ok := mergedC.NoteIndex(q)
		if !ok {
			return nil, st, pc, fmt.Errorf("merged program cannot notify %d", q)
		}
		noteIdx[q] = k
	}
	var unmerged []*lang.Runner
	for _, u := range p.udfs {
		c, err := lang.Compile(u)
		if err != nil {
			return nil, st, pc, err
		}
		r := lang.NewRunner(c, lib)
		if err := r.BeginBatch1(); err != nil {
			return nil, st, pc, err
		}
		unmerged = append(unmerged, r)
	}
	filtered := guard != nil && !guard.Trivial
	var grn *lang.Runner
	if filtered {
		grn = lang.NewRunner(guard.Compiled, lib)
		if err := grn.BeginBatch1(); err != nil {
			return nil, st, pc, err
		}
	}
	lite, _ := lib.(engine.LiteRecordLibrary)
	liteSpan, _ := lib.(engine.LiteSpanLibrary)

	backing := make([]bool, n*nUDFs)
	rows := make([][]bool, n)
	for i := range rows {
		rows[i] = backing[i*nUDFs : (i+1)*nUDFs : (i+1)*nUDFs]
	}

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	sweep := func(name string, f func()) time.Duration { return tr.do(name, parent, rep, f) }
	decode := func(recs []int) func() {
		return func() {
			for _, i := range recs {
				lib.SetRecord(i)
			}
		}
	}
	// runGuard evaluates the guard on the selected record and sorts it into
	// admitted or rejected, failing open on a guard error as the engine does.
	var admitted, rejected []int
	runGuard := func(i int) {
		c, err := grn.RunDense1(int64(i))
		if err == nil {
			pc.guardCost += c
			if !guard.Admits(grn) {
				rejected = append(rejected, i)
				return
			}
		}
		admitted = append(admitted, i)
	}

	// publish copies the runner's notifications into a verdict row, as the
	// engine's publish stage does.
	publish := func(row []bool) bool {
		for q, k := range noteIdx {
			v, ok := rn.NoteAt(k)
			if !ok {
				return false
			}
			row[q] = v
		}
		return true
	}
	scratch := make([]bool, nUDFs)

	all := make([]int, 0, engine.DefaultBatchSize)
	for lo := 0; lo < n; lo += engine.DefaultBatchSize {
		hi := lo + engine.DefaultBatchSize
		if hi > n {
			hi = n
		}
		all = all[:0]
		for i := lo; i < hi; i++ {
			all = append(all, i)
		}
		admitted, rejected = admitted[:0], rejected[:0]

		var warmAll, warmAdmitted time.Duration // cached decode of the batch, of its admitted records
		switch {
		case !filtered:
			admitted = append(admitted, all...)
			st.fullDecode += sweep("sweep.decode_cold", decode(all))
			warmAll = sweep("sweep.decode_warm", decode(all))
			warmAdmitted = warmAll
		case lite != nil:
			liteSweep := func() {
				if liteSpan != nil {
					liteSpan.SetRecordLiteSpan(lo, hi)
				}
				for _, i := range all {
					lite.SetRecordLite(i)
				}
			}
			st.liteDecode += sweep("sweep.lite_cold", liteSweep)
			warmLite := sweep("sweep.lite_warm", liteSweep)
			st.guard += sweep("sweep.lite_guard", func() {
				if liteSpan != nil {
					liteSpan.SetRecordLiteSpan(lo, hi)
				}
				for _, i := range all {
					lite.SetRecordLite(i)
					runGuard(i)
				}
			}) - warmLite
			st.fullDecode += sweep("sweep.decode_cold", decode(admitted))
			warmAdmitted = sweep("sweep.decode_warm", decode(admitted))
			warmAll = sweep("sweep.decode_warm_all", decode(all))
		default:
			// No lite decode: the guard runs after the full decode.
			st.fullDecode += sweep("sweep.decode_cold", decode(all))
			warmAll = sweep("sweep.decode_warm_all", decode(all))
			st.guard += sweep("sweep.decode_guard", func() {
				for _, i := range all {
					lib.SetRecord(i)
					runGuard(i)
				}
			}) - warmAll
			warmAdmitted = sweep("sweep.decode_warm", decode(admitted))
		}

		dvp := sweep("sweep.decode_vm_publish", func() {
			for _, i := range admitted {
				lib.SetRecord(i)
				c, err := rn.RunDense1(int64(i))
				if err != nil {
					fail(err)
				}
				pc.cost += c
				if !publish(rows[i]) {
					fail(fmt.Errorf("record %d: a notification is missing", i))
				}
			}
		})
		// Publishing alone: the runner still holds the last record's
		// notifications, so writing them once per admitted record into a
		// scratch row repeats the publish stage's work and nothing else.
		pub := sweep("sweep.publish_only", func() {
			for range admitted {
				publish(scratch)
			}
		})
		st.publish += pub
		st.vm += dvp - warmAdmitted - pub
		if len(rejected) > 0 {
			st.publish += sweep("sweep.publish_rejected", func() {
				for _, i := range rejected {
					row := rows[i]
					for q := range row {
						row[q] = false
					}
				}
			})
		}
		st.manyVM += sweep("sweep.decode_many", func() {
			for _, i := range all {
				lib.SetRecord(i)
				for _, r := range unmerged {
					if _, err := r.RunDense1(int64(i)); err != nil {
						fail(err)
					}
				}
			}
		}) - warmAll
		pc.admitted += len(admitted)
		if firstErr != nil {
			return nil, st, pc, firstErr
		}
	}
	pc.cost += pc.guardCost
	return rows, st, pc, nil
}

// replayFilter produces the per-layer metrics of a scan or merge workload.
// Each repetition first makes one untraced engine call per part — the whole
// that the replayed stages are shares of, taken next to the replay so that
// both see the machine in the same state — and then replays it in stages.
// manyWall is the wall of the unmerged operator over the same parts.
func replayFilter(res *result, parts []*part, engineOut []*engine.ConsolidatedResult, manyWall float64, cfg runConfig) error {
	tr := newTracer(res.Workload)
	defer func() { res.spans = tr.spans }()
	records := float64(res.Records)
	var stages []stageTimes
	// perRec is the median over the replays of one stage, per stream record.
	perRec := func(stage func(stageTimes) time.Duration) float64 {
		var ns []float64
		for _, st := range stages {
			ns = append(ns, float64(stage(st).Nanoseconds()))
		}
		return ratio(median(ns), records)
	}

	// Stage replay, several times; each metric is the median over them.
	var calls, compile, synth, collect, overhead, traceOverhead []float64
	var guards []*prefilter.Guard
	var alloc uint64
	for rep := 0; rep < cfg.size.replays; rep++ {
		var call time.Duration
		for _, p := range parts {
			before := totalAlloc()
			d, err := timed(func() error { _, err := p.engineCall(1); return err })
			if res.call(err) != nil {
				return err
			}
			if rep == 0 {
				alloc += totalAlloc() - before
			}
			call += d
		}
		calls = append(calls, call.Seconds())

		var sums stageTimes
		var tCons, tCompile, tSynth, tCollect time.Duration
		guards = guards[:0]
		root := tr.start("replay", -1, rep)
		for i, p := range parts {
			var merged *lang.Program
			var mergedC *lang.Compiled
			var guard *prefilter.Guard
			var err error
			tCons += tr.do("consolidate.All(warm)", root, rep, func() {
				merged, _, err = consolidate.All(p.udfs, p.copts(p.warm), true, true)
			})
			if res.call(err) != nil {
				return err
			}
			tCompile += tr.do("lang.Compile", root, rep, func() { mergedC, err = lang.Compile(merged) })
			if res.call(err) != nil {
				return err
			}
			popts := prefilter.Options{Coster: p.ds, Cache: p.warm}
			if l, ok := p.ds.(engine.LiteRecordLibrary); ok {
				popts.MaxCallCost = l.LiteCostBound()
			}
			sid := tr.start("prefilter.Synthesize", root, rep)
			guard = prefilter.Synthesize(merged, popts)
			tSynth += tr.stop(sid)
			// Synthesize walks the merged program itself; the walk is timed
			// again on its own, outside the stages that add up to the call.
			tCollect += tr.do("sym.CollectNotifyTrue", root, rep, func() {
				sym.CollectNotifyTrue(merged, prefilter.DefaultMaxContexts)
			})
			guards = append(guards, guard)

			pass := tr.start("pass", root, rep)
			rows, st, pc, err := replayPass(tr, pass, rep, p, mergedC, guard)
			tr.stop(pass)
			if res.call(err) != nil {
				return err
			}
			// The replay must reproduce the engine's verdict rows byte for
			// byte, and its cost and admission counts exactly.
			res.verdicts(diffBools(engineOut[i].Bools, rows))
			eng := passCounts{engineOut[i].UDFCost, engineOut[i].GuardCost, engineOut[i].Admitted}
			res.Attempted++
			if pc != eng {
				res.Failed++
				fmt.Printf("  %s/%s: replay counts %+v, engine %+v\n", p.spec.domain, p.spec.family, pc, eng)
			}
			sums.add(st)
		}
		replayWall := tr.stop(root)
		staged := tCons + tCompile + tSynth + sums.staged()
		overhead = append(overhead, 1-ratio(staged.Seconds(), call.Seconds()))
		traceOverhead = append(traceOverhead, ratio(replayWall.Seconds(), call.Seconds())-1)
		compile = append(compile, tCompile.Seconds())
		synth, collect = append(synth, tSynth.Seconds()), append(collect, tCollect.Seconds())
		stages = append(stages, sums)
	}
	m := res.Metrics
	m["data.decode_lite_ns_per_rec"] = perRec(func(st stageTimes) time.Duration { return st.liteDecode })
	m["data.decode_full_ns_per_rec"] = perRec(func(st stageTimes) time.Duration { return st.fullDecode })
	m["prefilter.guard_ns_per_rec"] = perRec(func(st stageTimes) time.Duration { return st.guard })
	m["lang.vm_ns_per_rec"] = perRec(func(st stageTimes) time.Duration { return st.vm })
	m["engine.publish_ns_per_rec"] = perRec(func(st stageTimes) time.Duration { return st.publish })
	m["lang.many_vm_ns_per_rec"] = perRec(func(st stageTimes) time.Duration { return st.manyVM })
	m["lang.compile_s"] = median(compile)
	m["prefilter.synth_s"] = median(synth)
	m["sym.collect_notify_s"] = median(collect)
	m["engine.overhead_share"] = median(overhead)
	m["trace_overhead_share"] = median(traceOverhead)
	m["engine.pass_speedup"] = ratio(manyWall, median(calls))
	m["engine.alloc_bytes_per_rec"] = ratio(float64(alloc), records)
	res.Timings["call_wall_s"] = summarise(calls)

	// Counts of the pass, from the engine's public metrics and the guards.
	var admitted, batches, trivial int
	var guardCost, vmCost int64
	for i, out := range engineOut {
		admitted += out.Admitted
		batches += out.Batches
		vmCost += out.UDFCost - out.GuardCost
		if g := guards[i]; g.Trivial {
			trivial++
		} else {
			guardCost += g.Cost
		}
	}
	m["prefilter.admitted_share"] = ratio(float64(admitted), records)
	m["prefilter.guard_trivial"] = float64(trivial)
	m["prefilter.guard_cost"] = float64(guardCost)
	m["lang.vm_cost_per_rec"] = ratio(float64(vmCost), records)
	m["engine.batches"] = float64(batches)

	// One call with two workers for the scaling point.
	var w2 time.Duration
	for _, p := range parts {
		d, err := timed(func() error { _, err := p.engineCall(2); return err })
		if res.call(err) != nil {
			return err
		}
		w2 += d
	}
	m["engine.scale_w2"] = ratio(median(calls), w2.Seconds())

	return replayMerge(res, tr, parts)
}

// replayMerge produces the consolidate and smt metrics from three serial
// consolidations per part, none of them instrumented inside:
//
//   - cold, default configuration, fresh cache: the wall and the public counts;
//   - the same again over the now warm cache: every verdict is a lookup, so the
//     wall is what Ω, sym and simplify cost without solving (non_smt_s);
//   - solving contexts off, so that every query passes through the stateless
//     Solver.Check, whose Trace hook records each (formula, verdict) pair. The
//     formulas are then re-issued in order to a fresh solver of the same kind,
//     one span per Check, which splits fresh solves from cache hits and must
//     reach the same verdicts.
func replayMerge(res *result, tr *tracer, parts []*part) error {
	type query struct {
		f logic.Formula
		r smt.Result
	}
	m := res.Metrics
	var serial, warm, cleanup, freshT, hitT time.Duration
	var fresh []float64
	var alloc uint64
	var solver smt.Stats
	var ctx smt.ContextStats
	var rulesIf, rulesLoop, fuel, mismatches int
	root := tr.start("merge-replay", -1, 0)
	for _, p := range parts {
		var merged *lang.Program
		var tree *consolidate.MergeTree
		var ms *consolidate.MultiStats
		var err error
		opts := p.copts(smt.NewCache(0))
		before := totalAlloc()
		serial += tr.do("consolidate.AllTree(cold)", root, 0, func() {
			merged, tree, ms, err = consolidate.AllTree(p.udfs, opts, true, false)
		})
		alloc += totalAlloc() - before
		if res.call(err) != nil {
			return err
		}
		if pre := tree.Nodes[consolidate.Span{Lo: 0, Hi: tree.N}]; pre != nil {
			cleanup += tr.do("consolidate.FinalCleanup", root, 0, func() { consolidate.FinalCleanup(pre) })
		}
		warm += tr.do("consolidate.AllTree(warm)", root, 0, func() {
			_, _, _, err = consolidate.AllTree(p.udfs, opts, true, false)
		})
		if res.call(err) != nil {
			return err
		}

		var log []query
		traced := smt.New()
		traced.Trace = func(f logic.Formula, r smt.Result, _ bool) { log = append(log, query{f, r}) }
		opts = p.copts(nil)
		opts.Solver, opts.NoSolvingContext = traced, true
		var plain *lang.Program
		tr.do("consolidate.AllTree(stateless)", root, 0, func() {
			plain, _, _, err = consolidate.AllTree(p.udfs, opts, true, false)
		})
		if res.call(err) != nil {
			return err
		}
		// Both configurations must merge to the same program.
		res.Attempted++
		if plain.String() != merged.String() {
			res.Failed++
			fmt.Printf("  %s/%s: stateless consolidation merged differently\n", p.spec.domain, p.spec.family)
		}

		again := smt.New()
		var cached bool
		again.Trace = func(_ logic.Formula, _ smt.Result, c bool) { cached = c }
		issue := tr.start("smt.reissue", root, 0)
		for _, q := range log {
			id := tr.start("smt.Check", issue, 0)
			r := again.Check(q.f)
			d := tr.stop(id)
			if r != q.r {
				mismatches++
			}
			if cached {
				hitT += d
			} else {
				freshT += d
				fresh = append(fresh, float64(d)/float64(time.Microsecond))
			}
		}
		tr.stop(issue)
		res.verdicts(len(log), 0)

		solver.Add(ms.Solver)
		ctx.Add(ms.Context)
		m["consolidate.pairs"] += float64(ms.Pairs)
		m["consolidate.levels"] += float64(ms.Levels)
		m["consolidate.merged_size"] += float64(ms.OutputSize)
		rulesIf += ms.Rules.If1 + ms.Rules.If2 + ms.Rules.If3 + ms.Rules.If4 + ms.Rules.If5
		rulesLoop += ms.Rules.Loop2 + ms.Rules.Loop3 + ms.Rules.LoopsSequential
		fuel += ms.VerbatimFallbacks()
	}
	tr.stop(root)
	res.Failed += mismatches

	m["consolidate.all_serial_s"] = serial.Seconds()
	m["consolidate.cleanup_s"] = cleanup.Seconds()
	m["consolidate.non_smt_s"] = warm.Seconds()
	m["consolidate.alloc_mb"] = float64(alloc) / (1 << 20)
	m["consolidate.rules_if"] = float64(rulesIf)
	m["consolidate.rules_loop"] = float64(rulesLoop)
	m["consolidate.fuel_exhausted"] = float64(fuel)

	m["smt.queries"] = float64(solver.Queries)
	m["smt.cache_hit_share"] = ratio(float64(solver.CacheHits), float64(solver.Queries))
	m["smt.ctx_memo_hit_share"] = ratio(float64(ctx.MemoHits), float64(ctx.Checks))
	m["smt.ctx_fallbacks"] = float64(ctx.Fallbacks)
	m["smt.unknowns"] = float64(solver.Unknowns)
	m["smt.sat_iters"] = float64(solver.SatIters)
	m["smt.theory_checks"] = float64(solver.TheoryChecks)
	m["smt.fresh_solves"] = float64(len(fresh))
	m["smt.fresh_solve_s"] = freshT.Seconds()
	m["smt.cache_hit_s"] = hitT.Seconds()
	m["smt.replay_mismatches"] = float64(mismatches)
	res.Timings["fresh_solve_us"] = summarise(fresh)
	sort.Float64s(fresh)
	m["smt.fresh_p50_us"] = quantile(fresh, 0.50)
	m["smt.fresh_p99_us"] = quantile(fresh, 0.99)
	return nil
}
