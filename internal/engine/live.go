package engine

import (
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// liveIDs maps one evaluator cluster's scratch rows to query ids,
// flattened to slot order at swap time so publish does no lookups.
type liveIDs struct {
	slots   []shard.QueryID
	removed []bool // slot -> unsubscribed since Merged was built: suppressed
	pend    []shard.QueryID
}

// liveWorker is one worker's share of a WhereSharded pass: the evaluator,
// whose totals it adds its swaps and suppressions to, the id tables of its
// current generation, and its banked latency.
type liveWorker struct {
	ev  *evaluator
	cls []liveIDs // non-nil once a generation is installed
	// lat holds latency banked from superseded generations: slot indices
	// mean something only within one generation.
	lat map[shard.QueryID]int64
}

// swap installs a cross-cluster generation: the evaluator resolves each
// cluster's registry snapshot, and each cluster's slot and pending ids are
// flattened here, once.
func (w *liveWorker) swap(s *shard.Snapshot) error {
	if w.cls != nil {
		w.ev.m.Swaps++
		w.bankLatency()
	}
	snaps := make([]*registry.Snapshot, len(s.Clusters))
	w.cls = make([]liveIDs, len(s.Clusters))
	for i, c := range s.Clusters {
		snaps[i] = c.Snap
		ids := &w.cls[i]
		if c.Snap.Compiled != nil {
			for _, id := range c.Snap.Slots {
				ids.slots = append(ids.slots, shard.QueryID(id))
				ids.removed = append(ids.removed, c.Snap.Removed[id])
			}
		}
		for _, pq := range c.Snap.Pending {
			ids.pend = append(ids.pend, shard.QueryID(pq.ID))
		}
	}
	return w.ev.swap(s.Gen, snaps)
}

// bankLatency folds the current generation's per-slot latency buckets into
// the worker-local bank, before every swap and at worker exit.
func (w *liveWorker) bankLatency() {
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
func (w *liveWorker) publish(lo, hi int, out *ShardedResult) {
	size := 0
	for ci := range w.cls {
		size += len(w.cls[ci].slots) + len(w.cls[ci].pend)
	}
	for i := lo; i < hi; i++ {
		k := i - lo
		verdicts := make(map[shard.QueryID]bool, size)
		for ci := range w.cls {
			c, ids := &w.ev.cls[ci], &w.cls[ci]
			ns, np := len(ids.slots), len(ids.pend)
			row := c.slotVals[k*ns : (k+1)*ns]
			for slot, id := range ids.slots {
				if ids.removed[slot] {
					w.ev.m.SuppressedNotifies++
					continue
				}
				verdicts[id] = row[slot]
			}
			for j, id := range ids.pend {
				verdicts[id] = c.pendVals[k*np+j]
			}
		}
		out.Verdicts[i] = verdicts
		out.Gens[i] = w.ev.gen
	}
}
