package engine

import (
	"fmt"
	"time"

	"consolidation/internal/shard"
)

// LiveSource serves atomically published cross-cluster snapshots;
// *shard.ShardedRegistry implements it, and tests wrap it to observe which
// generation admitted each batch.
type LiveSource interface {
	Snapshot() *shard.Snapshot
}

// ShardedResult is the outcome of streaming a dataset through a live
// registry. Verdicts are keyed by the stable shard-level QueryID — slot
// positions are unstable across generations; Gens records the
// cross-cluster generation that admitted each record, so callers can audit
// exactly which query set each record was evaluated against; and
// LatencySum accumulates, per query, the abstract cost at which its
// notification was decided (its cluster's guard share plus the merged
// program's notification cost — or, for a guard-rejected record, the
// guard's own notification cost, exactly as WhereConsolidated stamps
// rejections).
type ShardedResult struct {
	Verdicts   []map[shard.QueryID]bool
	Gens       []uint64
	LatencySum map[shard.QueryID]int64
	Metrics
}

// WhereSharded is the live pass: it streams every record through a sharded
// registry with two-level routing. Per batch, stage A runs every cluster's
// admission guard over the lite-decode span, and stage B pays the full
// record decode and runs only the admitted clusters' merged-program VMs;
// queries still pending consolidation run verbatim alongside the stale
// merged program, and queries removed since it was built are suppressed by
// id.
//
// Workers claim batches off the shared loop; per claimed batch a worker
// loads the current snapshot, swaps its evaluator if the generation
// changed, evaluates the batch, and publishes the verdict maps. Because the
// load happens once per batch, a generation swap never splits a batch and
// Gens is constant on every batch span — no drops, no double
// notifications, even while Add/Remove churn and background
// re-consolidation are in flight. With several workers, concurrent batches
// may be admitted by different generations, each recorded in Gens.
//
// Each record's verdict map is written by exactly one worker and every
// accumulated metric is a commutative per-record sum, so verdicts, costs,
// and latency stamps are byte-identical at every Workers × BatchSize
// against a quiescent source.
func WhereSharded(data RecordLibrary, src LiveSource, opts Options) (*ShardedResult, error) {
	n := data.NumRecords()
	out := &ShardedResult{
		Verdicts:   make([]map[shard.QueryID]bool, n),
		Gens:       make([]uint64, n),
		LatencySum: map[shard.QueryID]int64{},
	}
	out.Records, out.Batches = n, opts.batches(n)
	start := time.Now()
	err := runClaims(data, opts.workers(), out.Batches, func(lib RecordLibrary) (run func(int) error, fold func(), err error) {
		w := &liveWorker{ev: newEvaluator(lib, opts), lat: map[shard.QueryID]int64{}}
		run = func(b int) error {
			lo, hi := opts.span(b, n)
			// Batch boundary: this load decides the query set for [lo, hi).
			if s := src.Snapshot(); w.cls == nil || s.Gen != w.ev.gen {
				if err := w.swap(s); err != nil {
					return fmt.Errorf("engine: gen %d: %w", s.Gen, err)
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
				out.LatencySum[id] += v
			}
			out.add(w.ev.totals())
		}
		return run, fold, nil
	})
	if err != nil {
		return nil, err
	}
	out.TotalTime = time.Since(start)
	return out, nil
}
