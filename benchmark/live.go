package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/queries"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// liveQuery is one subscribed query and its shard-level id: the id
// correspondence the final pass is checked under.
type liveQuery struct {
	id   shard.QueryID
	prog *lang.Program
}

// liveState is a seeded sharded registry over the news records.
type liveState struct {
	ds   engine.RecordLibrary
	pool []*lang.Program
	next int
	sh   *shard.ShardedRegistry
	live []liveQuery

	admits   []time.Duration // Add/Remove walls, seeding included
	coldWall time.Duration   // the cold Flush
}

func (s *liveState) add() error {
	t0 := time.Now()
	id, err := s.sh.Add(s.pool[s.next])
	s.admits = append(s.admits, time.Since(t0))
	if err != nil {
		return err
	}
	s.live = append(s.live, liveQuery{id, s.pool[s.next]})
	s.next++
	return nil
}

func (s *liveState) remove(k int) error {
	t0 := time.Now()
	err := s.sh.Remove(s.live[k].id)
	s.admits = append(s.admits, time.Since(t0))
	s.live = append(s.live[:k], s.live[k+1:]...)
	return err
}

// setupLive generates the records and the query pool, seeds the registry and
// pays the cold Flush. It is live-churn's set-up and runs once per run: the
// Flush alone takes seconds, long enough to time in one sample.
func setupLive(cfg runConfig, events int) (*liveState, error) {
	ds, err := genDataset("news", cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	pool, err := queries.Gen("news", "Mix", cfg.size.liveN+events, programSeed)
	if err != nil {
		return nil, err
	}
	copts := (&part{ds: ds}).copts(nil)
	sh, err := shard.New(shard.Options{
		Registry:       registry.Options{Consolidate: copts, Prefilter: &prefilter.Options{Coster: ds}},
		MaxClusterSize: cfg.size.maxCluster,
		MinSimilarity:  -1,
	})
	if err != nil {
		return nil, err
	}
	s := &liveState{ds: ds, pool: pool, sh: sh}
	for i := 0; i < cfg.size.liveN; i++ {
		if err := s.add(); err != nil {
			sh.Close()
			return nil, err
		}
	}
	t0 := time.Now()
	_, err = sh.Flush()
	s.coldWall = time.Since(t0)
	if err != nil {
		sh.Close()
		return nil, err
	}
	return s, nil
}

// runLive measures live-churn: a fixed, seeded order of Add and Remove
// events, each followed by Rebuild, and one WhereSharded pass after every
// tenth event. The number of events follows -seconds (rounded up to tens) in
// place of a deadline, so that two runs perform the same events and the
// counts repeat exactly.
func runLive(name string, cfg runConfig) (*result, error) {
	res := newResult(name, cfg.traced)
	events := int(math.Ceil(cfg.seconds*float64(cfg.size.eventsPerSecond)/10)) * 10
	tr := newTracer(name)
	root := tr.start("live-churn", -1, 0)

	var s *liveState
	sid := tr.start("setup", root, 0)
	setup, err := timed(func() (err error) { s, err = setupLive(cfg, events); return })
	tr.stop(sid)
	if res.call(err) != nil {
		return nil, err
	}
	defer s.sh.Close()
	res.Records, res.UDFs = s.ds.NumRecords(), cfg.size.liveN

	pass := func(workers int) (*engine.ShardedResult, time.Duration, error) {
		var out *engine.ShardedResult
		id := tr.start("engine.WhereSharded", root, 0)
		d, err := timed(func() (err error) {
			out, err = engine.WhereSharded(s.ds, s.sh, engine.Options{Workers: workers})
			return
		})
		tr.stop(id)
		return out, d, res.call(err)
	}
	// One discarded warm-up pass.
	if _, _, err := pass(1); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(programSeed))
	var eventWalls, stalls, passes []float64
	var last *engine.ShardedResult
	var swaps, pending, batches int
	// event is one Add or Remove, in the fixed order, followed by Rebuild.
	event := func() (admit, stall time.Duration, err error) {
		runtime.GC()
		t0 := time.Now()
		if len(s.live) <= cfg.size.liveN/2 || rng.Intn(2) != 0 {
			id := tr.start("shard.Add", root, 0)
			err = s.add()
			tr.stop(id)
		} else {
			id := tr.start("shard.Remove", root, 0)
			err = s.remove(rng.Intn(len(s.live)))
			tr.stop(id)
		}
		admit = time.Since(t0)
		if res.call(err) != nil {
			return 0, 0, err
		}
		id := tr.start("shard.Rebuild", root, 0)
		_, err = s.sh.Rebuild()
		stall = tr.stop(id)
		return admit, stall, res.call(err)
	}
	for ev := 1; ev <= events; ev++ {
		admit, stall, err := event()
		if err != nil {
			return nil, err
		}
		eventWalls = append(eventWalls, (admit + stall).Seconds())
		stalls = append(stalls, stall.Seconds())
		if ev%10 == 0 {
			out, d, err := pass(1)
			if err != nil {
				return nil, err
			}
			passes, last = append(passes, d.Seconds()), out
			swaps, pending, batches = swaps+out.Swaps, pending+out.PendingRuns, batches+out.Batches
		}
	}
	// Reference: the unmerged operator over the live set, compared with the
	// final pass under the id correspondence, and the interpreter on a sample.
	progs := make([]*lang.Program, len(s.live))
	for k, q := range s.live {
		progs[k] = q.prog
	}
	many, err := engine.WhereMany(s.ds, progs, engine.Options{Workers: 1})
	if res.call(err) != nil {
		return nil, err
	}
	merged := make([][]bool, len(last.Verdicts))
	for i, row := range last.Verdicts {
		merged[i] = make([]bool, len(s.live))
		if len(row) != len(s.live) {
			// Verdicts for queries outside the live set, or missing ones.
			res.verdicts(1, 1)
		}
		for k, q := range s.live {
			merged[i][k] = row[q.id]
		}
	}
	res.verdicts(diffBools(many.Bools, merged))
	res.verdicts(interpSample(&part{ds: s.ds, udfs: progs}, merged, rand.New(rand.NewSource(cfg.seed)), cfg.size.sample))
	if !s.sh.Snapshot().Clean() {
		res.verdicts(1, 1)
	}

	eventTotal := sum(eventWalls)
	if !cfg.traced {
		res.setTiming("setup_s", []float64{setup.Seconds()})
		res.Timings["call_wall_s"] = summarise(passes)
		res.Metrics["pass_rec_per_s"] = ratio(float64(res.Records), median(passes))
		res.Metrics["cost_speedup"] = ratio(float64(many.UDFCost), float64(last.UDFCost))
		// Mean seconds per churn event (Add or Remove, plus Rebuild): the
		// inverse of events per second. The event order is fixed, so the
		// mean — which the few large re-merges dominate — is as steady as
		// the median and hides nothing.
		res.Metrics["consolidate_s"] = eventTotal / float64(events)
		res.Timings["event_wall_s"] = summarise(eventWalls)
		return res, nil
	}
	m := res.Metrics
	m["data.gen_s"] = (setup - s.coldWall).Seconds()
	m["shard.cold_build_s"] = s.coldWall.Seconds()
	m["shard.events_per_s"] = ratio(float64(events), eventTotal)
	res.Timings["rebuild_wall_s"] = summarise(stalls)
	sort.Float64s(stalls)
	m["shard.stall_p90_ms"] = quantile(stalls, 0.90) * 1e3
	m["shard.rebuild_p50_ms"] = quantile(stalls, 0.50) * 1e3
	m["shard.rebuild_total_s"] = sum(stalls)
	admits := seconds(s.admits)
	res.Timings["admit_wall_s"] = summarise(admits)
	sort.Float64s(admits)
	m["shard.admit_p50_us"] = quantile(admits, 0.50) * 1e6
	m["shard.admit_p99_us"] = quantile(admits, 0.99) * 1e6

	st := s.sh.Stats()
	m["shard.clusters"] = float64(st.Clusters)
	m["shard.splits"] = float64(st.Splits)
	m["shard.moves"] = float64(st.Moves)
	var pairs, reused, smtQueries uint64
	var hitShare, sizeSum, sizeMax, trivial float64
	var prefilterT time.Duration
	clusters := s.sh.ClusterStats()
	for _, c := range clusters {
		pairs += c.Registry.PairsMerged
		reused += c.Registry.NodesReused
		lb := c.Registry.LastBuild
		smtQueries += uint64(lb.SMTQueries)
		hitShare += lb.CacheHitRate
		prefilterT += lb.PrefilterTime
		if lb.GuardTrivial {
			trivial++
		}
		sizeSum += float64(c.MergedSize)
		sizeMax = math.Max(sizeMax, float64(c.MergedSize))
	}
	nc := float64(len(clusters))
	m["registry.pairs_merged"] = float64(pairs)
	m["registry.nodes_reused_share"] = ratio(float64(reused), float64(pairs+reused))
	m["registry.smt_queries"] = float64(smtQueries)
	m["registry.cache_hit_share"] = ratio(hitShare, nc)
	m["registry.merged_size_mean"] = ratio(sizeSum, nc)
	m["registry.merged_size_max"] = sizeMax
	m["registry.guard_trivial_share"] = ratio(trivial, nc)
	m["registry.prefilter_s"] = prefilterT.Seconds()

	m["engine.batches"] = float64(batches)
	m["engine.swaps"] = float64(swaps)
	m["engine.pending_runs"] = float64(pending)
	m["prefilter.admitted_share"] = ratio(float64(last.Admitted), float64(last.Admitted+last.Rejected))
	m["prefilter.guard_cost"] = float64(last.GuardCost)
	m["lang.vm_cost_per_rec"] = ratio(float64(last.UDFCost-last.GuardCost), float64(res.Records))
	before := totalAlloc()
	if _, _, err := pass(1); err != nil {
		return nil, err
	}
	m["engine.alloc_bytes_per_rec"] = ratio(float64(totalAlloc()-before), float64(res.Records))
	_, w2, err := pass(2)
	if err != nil {
		return nil, err
	}
	m["engine.scale_w2"] = ratio(median(passes), w2.Seconds())
	m["engine.pass_speedup"] = ratio(many.TotalTime.Seconds(), median(passes))
	tr.stop(root)
	m["trace_overhead_share"] = tr.overheadShare()
	res.spans = tr.spans
	return res, nil
}
