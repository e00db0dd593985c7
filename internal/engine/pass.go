package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
)

// runClaims is the engine's one worker loop. It starts min(workers, claims)
// goroutines, each owning a data.Clone(), and hands out the claim indices
// [0, claims) off one shared counter: a worker stuck on a slow claim never
// strands the rest of a range (dynamic load balancing over a fixed,
// index-keyed partition). start builds a worker's private state and returns
// its per-claim body plus a fold that merges the worker-local totals (an
// error from start fails the pass, and neither is then called); fold runs
// once per worker under the loop's lock, so every total a pass reports is a
// commutative sum and independent of the schedule.
//
// The first error wins and sets the done flag: the other workers finish the
// claim in flight, claim nothing further and skip their fold (the failed
// pass's partial totals are discarded anyway). A panic in caller-supplied
// code — RecordLibrary.SetRecord/Call, Clone — or in the VM is contained
// here, the one place workers start, and reported as the pass error. Every
// worker is joined before runClaims returns, on every path.
func runClaims(data RecordLibrary, workers, claims int,
	start func(lib RecordLibrary) (run func(claim int) error, fold func(), err error)) error {

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     atomic.Bool
		next     atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		done.Store(true)
	}
	for w := min(workers, claims); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim := -1
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("engine: worker panic on claim %d: %v", claim, r))
				}
			}()
			run, fold, err := start(data.Clone())
			if err != nil {
				fail(err)
				return
			}
			for !done.Load() {
				if claim = int(next.Add(1)) - 1; claim >= claims {
					mu.Lock()
					defer mu.Unlock() // runs before the recover above, which locks again
					fold()
					return
				}
				if err := run(claim); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// batches is the number of fixed-size contiguous record batches in n records.
func (o Options) batches(n int) int { return (n + o.batchSize() - 1) / o.batchSize() }

// span is the record range [lo, hi) of batch b of n records.
func (o Options) span(b, n int) (lo, hi int) {
	lo = b * o.batchSize()
	return lo, min(lo+o.batchSize(), n)
}

// udfClockStride is the sampling interval of udfClock: one record in this
// many has its UDF runs timed.
const udfClockStride = 8

// udfClock estimates the wall time a worker spends in UDF evaluation after
// the full decode without reading the clock around every run. A run is one
// start/stop bracket — a merged program, a cluster's pending queries, a
// post-decode guard, or one WhereMany record's UDFs; the runs of the records
// whose index is a multiple of udfClockStride are timed, and total scales
// their sum by runs ÷ timed runs. The sample is keyed by record index, not
// batch position, so the same records are timed at every BatchSize. A timed
// run includes about one clock read, as every run did when all were timed;
// scaled, that read is no longer time the pass spent, so for UDFs much
// cheaper than a clock read the estimate overstates.
type udfClock struct {
	now    func() time.Time
	t0     time.Time
	timing bool          // the open run is a timed one
	sum    time.Duration // over the timed runs
	runs   int64
	timed  int64
}

func newUDFClock() udfClock { return udfClock{now: time.Now} }

// start opens a run on record i; stop closes it.
func (c *udfClock) start(i int) {
	c.runs++
	if c.timing = i%udfClockStride == 0; c.timing {
		c.t0 = c.now()
	}
}

func (c *udfClock) stop() {
	if c.timing {
		c.sum += c.now().Sub(c.t0)
		c.timed++
	}
}

// total is the estimated wall time of all runs; zero when none was timed.
func (c *udfClock) total() time.Duration {
	if c.timed == 0 {
		return 0
	}
	return time.Duration(float64(c.sum) * float64(c.runs) / float64(c.timed))
}

// passMetrics are the evaluator's worker-local totals. Each is a per-record
// sum, so folding the workers' copies in any order gives the same pass
// totals at every Workers × BatchSize.
type passMetrics struct {
	UDFCost     int64         // guards + merged programs + pending queries
	GuardCost   int64         // the guards' share of UDFCost
	GuardTime   time.Duration // stage A, timed per batch
	Admitted    int           // per-(record, cluster) admission verdicts
	Rejected    int
	PendingRuns int
}

// evalCluster is one cluster's resolved state within the evaluator's
// current generation: runners, dense note slots, and flat per-batch
// scratch. Latency accumulates into per-slot buckets so the stages stay
// map-free and allocation-free; callers fold the buckets where they want
// them when the generation ends.
type evalCluster struct {
	gen      uint64
	mergedRn *lang.Runner // nil: nothing consolidated yet, only pendings run
	noteIdx  []int        // slot -> dense note slot of the merged program, -1 when it cannot broadcast it
	guard    *prefilter.Guard
	guardRn  *lang.Runner // nil: unfiltered, every record is admitted
	pend     []registry.PendingQuery
	pendRns  []*lang.Runner
	pendIdx  []int

	// Per-batch scratch, indexed by position in the batch. Unguarded
	// clusters never write admit/gcost: they stay all-true / all-zero.
	admit    []bool
	gcost    []int64
	slotVals []bool // stride len(noteIdx); a rejected record's row is all false
	pendVals []bool // stride len(pendRns)
	latSlot  []int64
	latPend  []int64
}

// evaluator is the one place a guard or a merged program runs: a worker's
// guard → decode → VM sequence over one batch of records against the
// clusters of one generation. WhereSharded swaps it to each cross-cluster
// snapshot and WhereConsolidated to one fixed cluster that never swaps;
// publishing the verdict rows is the only per-operator step.
type evaluator struct {
	lib  RecordLibrary
	lite LiteRecordLibrary // nil: guards run after the full decode
	span LiteSpanLibrary
	opts Options

	// runners are cached per compiled program and survive swaps that keep
	// the program (delta snapshots share the stale Merged, and a pending
	// query's compiled form is stable until it is consolidated).
	runners map[*lang.Compiled]*lang.Runner
	cls     []evalCluster
	// liteGuards: stage A has work. always: stage B decodes every record —
	// some query is pending, or a guard has to run after the full decode.
	liteGuards, always bool
	m                  passMetrics
	clock              udfClock // stage B's UDF runs
}

func newEvaluator(lib RecordLibrary, opts Options) *evaluator {
	e := &evaluator{lib: lib, opts: opts, clock: newUDFClock()}
	e.lite, _ = lib.(LiteRecordLibrary)
	e.span, _ = lib.(LiteSpanLibrary)
	return e
}

// swap installs a generation: one cluster per snapshot. Runners, note slots
// and scratch are resolved here, once, so the batch stages do no lookups;
// runners of programs the new generation no longer runs are dropped.
func (e *evaluator) swap(snaps []*registry.Snapshot) error {
	old := e.runners
	e.runners = make(map[*lang.Compiled]*lang.Runner, len(old))
	runner := func(c *lang.Compiled) (*lang.Runner, error) {
		rn := e.runners[c]
		if rn == nil {
			if rn = old[c]; rn == nil {
				rn = e.opts.runner(c, e.lib)
				if err := rn.BeginBatch1(); err != nil {
					return nil, err
				}
			}
			e.runners[c] = rn
		}
		return rn, nil
	}
	bsize := e.opts.batchSize()
	e.cls = make([]evalCluster, len(snaps))
	e.liteGuards, e.always = false, false
	for i, s := range snaps {
		c := &e.cls[i]
		c.gen = s.Gen
		var err error
		if s.Compiled != nil {
			if c.mergedRn, err = runner(s.Compiled); err != nil {
				return err
			}
			// Notify ids were renumbered to slot positions at build time.
			c.noteIdx = make([]int, len(s.Slots))
			for slot := range c.noteIdx {
				k, ok := s.Compiled.NoteIndex(slot)
				if !ok {
					k = -1
				}
				c.noteIdx[slot] = k
			}
			// The guard swaps with the snapshot it was synthesized for: it
			// gates only that generation's Merged, so a stale guard can never
			// filter a record a pending query would notify on. Trivial guards
			// are not executed: the pass is then byte-identical to an
			// unfiltered one.
			if s.Guard != nil && !s.Guard.Trivial {
				c.guard = s.Guard
				if c.guardRn, err = runner(s.Guard.Compiled); err != nil {
					return err
				}
				e.liteGuards = e.liteGuards || e.lite != nil
				e.always = e.always || e.lite == nil
			}
		}
		c.pend = s.Pending
		for _, pq := range c.pend {
			rn, err := runner(pq.Compiled)
			if err != nil {
				return err
			}
			k, ok := pq.Compiled.NoteIndex(pq.NotifyID)
			if !ok {
				k = -1
			}
			c.pendRns = append(c.pendRns, rn)
			c.pendIdx = append(c.pendIdx, k)
			e.always = true
		}
		c.admit = make([]bool, bsize)
		for k := range c.admit {
			c.admit[k] = true
		}
		c.gcost = make([]int64, bsize)
		c.slotVals = make([]bool, bsize*len(c.noteIdx))
		c.pendVals = make([]bool, bsize*len(c.pendRns))
		c.latSlot = make([]int64, len(c.noteIdx))
		c.latPend = make([]int64, len(c.pendRns))
	}
	return nil
}

// udfTime is the worker's UDF evaluation time: the guard stage's measured
// time plus the sampled clock's estimate for the runs after the full decode.
func (e *evaluator) udfTime() time.Duration { return e.m.GuardTime + e.clock.total() }

// evalBatch runs records [lo, hi) against the current generation, into the
// clusters' scratch rows. Steady state performs no allocations.
func (e *evaluator) evalBatch(lo, hi int) error {
	verdicts := (hi - lo) * len(e.cls) // one admission verdict per (record, cluster)
	rej0 := e.m.Rejected

	// Stage A: every guarded cluster's admission verdict, on the lite decode
	// of the span. One timer pair covers the stage (the lite decode is
	// near-zero by contract, so including it keeps the metric honest without
	// a per-record timer read).
	if e.liteGuards {
		if e.span != nil {
			e.span.SetRecordLiteSpan(lo, hi)
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			e.lite.SetRecordLite(i)
			for ci := range e.cls {
				if c := &e.cls[ci]; c.guardRn != nil {
					if err := e.runGuard(c, i, i-lo); err != nil {
						return err
					}
				}
			}
		}
		e.m.GuardTime += time.Since(t0)
		if !e.always && e.m.Rejected-rej0 == verdicts {
			return nil // nothing admitted, nothing pending: no full decode at all
		}
	}

	// Stage B: one full decode per record some cluster admitted, shared by
	// the admitted clusters' merged programs and the pending queries, which
	// run verbatim whatever the guards said. VM runs go through the sampled
	// clock, which excludes the decode.
	for i := lo; i < hi; i++ {
		k := i - lo
		run := e.always
		for ci := 0; !run && ci < len(e.cls); ci++ {
			run = e.cls[ci].admit[k] && e.cls[ci].mergedRn != nil
		}
		if !run {
			continue
		}
		e.lib.SetRecord(i)
		for ci := range e.cls {
			c := &e.cls[ci]
			if c.guardRn != nil && e.lite == nil {
				// No lite decode available: the guard runs after the full
				// decode, fused into this stage — the decode is shared,
				// exactly as on a lite-capable dataset's admitted path.
				e.clock.start(i)
				err := e.runGuard(c, i, k)
				e.clock.stop()
				if err != nil {
					return err
				}
			}
			if !c.admit[k] || c.mergedRn == nil {
				continue
			}
			e.clock.start(i)
			cost, err := c.mergedRn.RunDense1(int64(i))
			e.clock.stop()
			if err != nil {
				return fmt.Errorf("engine: consolidated program (gen %d) on record %d: %w", c.gen, i, err)
			}
			e.m.UDFCost += cost
			ns := len(c.noteIdx)
			row, lat := c.slotVals[k*ns:(k+1)*ns], c.latSlot
			for slot, nk := range c.noteIdx {
				v, ok := c.mergedRn.NoteAt(nk)
				if !ok {
					return fmt.Errorf("engine: gen %d missing notification for slot %d on record %d", c.gen, slot, i)
				}
				row[slot] = v
				lat[slot] += c.gcost[k] + c.mergedRn.NoteCostAt(nk)
			}
		}
		for ci := range e.cls {
			c := &e.cls[ci]
			np := len(c.pendRns)
			if np == 0 {
				continue
			}
			e.clock.start(i)
			for j, rn := range c.pendRns {
				cost, err := rn.RunDense1(int64(i))
				if err != nil {
					return fmt.Errorf("engine: pending query %s on record %d: %w", c.pend[j].Program.Name, i, err)
				}
				v, ok := rn.NoteAt(c.pendIdx[j])
				if !ok {
					return fmt.Errorf("engine: pending query %s did not notify id %d on record %d", c.pend[j].Program.Name, c.pend[j].NotifyID, i)
				}
				c.pendVals[k*np+j] = v
				c.latPend[j] += rn.NoteCostAt(c.pendIdx[j])
				e.m.UDFCost += cost
				e.m.PendingRuns++
			}
			e.clock.stop()
		}
	}
	e.m.Admitted += verdicts - (e.m.Rejected - rej0)
	return nil
}

// runGuard evaluates cluster c's admission guard on record i (batch
// position k). A guard runtime error fails open: the record is admitted and
// the merged program decides (and surfaces its own error, if any), and no
// cost is counted for a run that errored out. A rejection is final here —
// the guard is a necessary condition for every notification of c's merged
// program, so all slot verdicts are false, stamped at the guard's own
// notification cost — and the slots must still all be broadcastable, the
// same structural check the admitted path performs.
func (e *evaluator) runGuard(c *evalCluster, i, k int) error {
	gcost, gerr := c.guardRn.RunDense1(int64(i))
	if gerr != nil {
		c.admit[k], c.gcost[k] = true, 0
		return nil
	}
	e.m.UDFCost += gcost
	e.m.GuardCost += gcost
	if c.admit[k], c.gcost[k] = c.guard.Admits(c.guardRn), gcost; c.admit[k] {
		return nil
	}
	e.m.Rejected++
	stamp := c.guardRn.NoteCostAt(c.guard.NoteIdx)
	ns := len(c.noteIdx)
	row, lat := c.slotVals[k*ns:(k+1)*ns], c.latSlot
	for slot, nk := range c.noteIdx {
		if nk == -1 {
			return fmt.Errorf("engine: gen %d missing notification for slot %d on record %d", c.gen, slot, i)
		}
		row[slot] = false
		lat[slot] += stamp
	}
	return nil
}
