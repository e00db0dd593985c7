package engine

import (
	"fmt"
	"time"

	"consolidation/internal/registry"
)

// liveCluster is one cluster of a live generation as whereLive sees it: the
// cluster's registry snapshot, and the mapping from its local query ids to
// the ids the caller's verdict maps are keyed by.
type liveCluster[ID comparable] struct {
	snap *registry.Snapshot
	idOf func(registry.QueryID) ID
}

// liveResult is a live pass's outcome in the caller's id type.
type liveResult[ID comparable] struct {
	verdicts []map[ID]bool
	gens     []uint64
	lat      map[ID]int64
	m        RegistryMetrics
}

// whereLive is the pass behind WhereRegistry and WhereSharded. Workers claim
// batches off the shared loop; per claimed batch a worker loads the current
// generation (load), swaps its evaluator if the generation changed
// (clusters resolves the new one, once per swap), evaluates the batch, and
// publishes the verdict maps. Because the load happens once per batch, a
// generation swap never splits a batch and Gens is constant on every batch
// span; with several workers, concurrent batches may be admitted by
// different generations, each recorded in Gens.
//
// Each record's verdict map is written by exactly one worker and every
// accumulated metric is a commutative per-record sum, so verdicts, costs,
// and latency stamps are byte-identical at every Workers × BatchSize
// against a quiescent source. Swaps counts generation changes a worker
// picked up at a batch boundary and therefore depends on scheduling.
func whereLive[S any, ID comparable](data RecordLibrary, opts Options,
	load func() (S, uint64), clusters func(S) []liveCluster[ID]) (*liveResult[ID], error) {

	n := data.NumRecords()
	out := &liveResult[ID]{verdicts: make([]map[ID]bool, n), gens: make([]uint64, n), lat: map[ID]int64{}}
	out.m.Records, out.m.Batches = n, opts.batches(n)
	start := time.Now()
	err := runClaims(data, opts.workers(), out.m.Batches, func(lib RecordLibrary) (run func(int) error, fold func(), err error) {
		w := &liveWorker[ID]{ev: newEvaluator(lib, opts), lat: map[ID]int64{}}
		run = func(b int) error {
			lo, hi := opts.span(b, n)
			// Batch boundary: this load decides the query set for [lo, hi).
			if s, gen := load(); w.cls == nil || gen != w.gen {
				if err := w.swap(gen, clusters(s)); err != nil {
					return fmt.Errorf("engine: gen %d: %w", gen, err)
				}
			}
			if err := w.ev.evalBatch(lo, hi); err != nil {
				return err
			}
			w.publish(lo, hi, out)
			return nil
		}
		fold = func() {
			w.bankLatency()
			for id, v := range w.lat {
				out.lat[id] += v
			}
			m, em := &out.m, &w.ev.m
			m.Swaps += w.swaps
			m.SuppressedNotifies += w.suppressed
			m.PendingRuns += em.PendingRuns
			m.UDFCost += em.UDFCost
			m.UDFTime += w.ev.udfTime()
			m.Admitted += em.Admitted
			m.Rejected += em.Rejected
			m.GuardCost += em.GuardCost
		}
		return run, fold, nil
	})
	if err != nil {
		return nil, err
	}
	out.m.TotalTime = time.Since(start)
	return out, nil
}

// liveIDs maps one evaluator cluster's scratch rows to the caller's ids,
// flattened to slot order at swap time so publish does no lookups.
type liveIDs[ID comparable] struct {
	slots   []ID
	removed []bool // slot -> unsubscribed since Merged was built: suppressed
	pend    []ID
}

// liveWorker is one worker's share of a live pass: the evaluator, the id
// tables of its current generation, and worker-local totals.
type liveWorker[ID comparable] struct {
	ev  *evaluator
	gen uint64
	cls []liveIDs[ID] // non-nil once a generation is installed
	// lat holds latency banked from superseded generations: slot indices
	// mean something only within one generation.
	lat               map[ID]int64
	swaps, suppressed int
}

func (w *liveWorker[ID]) swap(gen uint64, cls []liveCluster[ID]) error {
	if w.cls != nil {
		w.swaps++
		w.bankLatency()
	}
	snaps := make([]*registry.Snapshot, len(cls))
	w.gen, w.cls = gen, make([]liveIDs[ID], len(cls))
	for i, c := range cls {
		snaps[i] = c.snap
		ids := &w.cls[i]
		if c.snap.Compiled != nil {
			for _, id := range c.snap.Slots {
				ids.slots = append(ids.slots, c.idOf(id))
				ids.removed = append(ids.removed, c.snap.Removed[id])
			}
		}
		for _, pq := range c.snap.Pending {
			ids.pend = append(ids.pend, c.idOf(pq.ID))
		}
	}
	return w.ev.swap(snaps)
}

// bankLatency folds the current generation's per-slot latency buckets into
// the worker-local bank, before every swap and at worker exit.
func (w *liveWorker[ID]) bankLatency() {
	for ci := range w.cls {
		c, ids := &w.ev.cls[ci], &w.cls[ci]
		for slot, v := range c.latSlot {
			if v != 0 {
				w.lat[ids.slots[slot]] += v
			}
		}
		for j, v := range c.latPend {
			if v != 0 {
				w.lat[ids.pend[j]] += v
			}
		}
	}
}

// publish materialises the batch's per-record verdict maps from every
// cluster's flat scratch rows and stamps the generation that admitted it.
func (w *liveWorker[ID]) publish(lo, hi int, out *liveResult[ID]) {
	size := 0
	for ci := range w.cls {
		size += len(w.cls[ci].slots) + len(w.cls[ci].pend)
	}
	for i := lo; i < hi; i++ {
		k := i - lo
		verdicts := make(map[ID]bool, size)
		for ci := range w.cls {
			c, ids := &w.ev.cls[ci], &w.cls[ci]
			ns, np := len(ids.slots), len(ids.pend)
			row := c.slotVals[k*ns : (k+1)*ns]
			for slot, id := range ids.slots {
				if ids.removed[slot] {
					w.suppressed++
					continue
				}
				verdicts[id] = row[slot]
			}
			for j, id := range ids.pend {
				verdicts[id] = c.pendVals[k*np+j]
			}
		}
		out.verdicts[i] = verdicts
		out.gens[i] = w.gen
	}
}
