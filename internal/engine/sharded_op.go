package engine

import (
	"time"

	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// ShardSnapshotSource serves atomically published cross-cluster snapshots;
// *shard.ShardedRegistry implements it, and tests wrap it to observe which
// generation admitted each batch.
type ShardSnapshotSource interface {
	Snapshot() *shard.Snapshot
}

// ShardedMetrics summarises one WhereSharded pass.
type ShardedMetrics struct {
	Records int
	// Batches counts batch dispatches across all workers; Swaps counts
	// generation changes a worker picked up at a batch boundary, so it
	// depends on scheduling — parity checks must not diff it.
	Batches int
	Swaps   int
	// PendingRuns and SuppressedNotifies mirror RegistryMetrics, summed
	// across clusters.
	PendingRuns        int
	SuppressedNotifies int
	// UDFCost sums the abstract cost of every cluster's guard, merged
	// program, and pending queries; GuardCost is the guards' share of it.
	UDFCost int64
	// UDFTime is the Metrics.UDFTime estimate: stage A measured per batch,
	// stage B's merged-program and pending runs sampled on every eighth
	// record and scaled.
	UDFTime   time.Duration
	TotalTime time.Duration
	// Admitted and Rejected count per-(record, cluster) admission verdicts:
	// each record receives one verdict from every cluster of its batch's
	// generation (clusters without a usable guard admit unconditionally),
	// so Admitted+Rejected = Records × Clusters on a quiescent pass.
	Admitted  int
	Rejected  int
	GuardCost int64
}

// ShardedResult is the outcome of streaming a dataset through a sharded
// registry. Verdicts are keyed by the stable shard-level QueryID; Gens
// records the cross-cluster generation that admitted each record; and
// LatencySum accumulates, per query, the abstract cost at which its
// notification was decided (its cluster's guard share plus the merged
// program's notification cost — or, for a guard-rejected record, the
// guard's own notification cost, exactly as WhereConsolidated stamps
// rejections).
type ShardedResult struct {
	Verdicts   []map[shard.QueryID]bool
	Gens       []uint64
	LatencySum map[shard.QueryID]int64
	ShardedMetrics
}

// WhereSharded streams every record through a sharded registry with
// two-level routing: per batch, stage A runs every cluster's admission
// guard over the lite-decode span, and stage B pays the full record decode
// and runs only the admitted clusters' merged-program VMs (pending queries
// run verbatim regardless). The snapshot is loaded once per batch, so each
// batch sees one atomic cross-cluster query set. It is the live pass (see
// whereLive) over the snapshot's clusters, with each cluster's local ids
// mapped to shard-level ids.
func WhereSharded(data RecordLibrary, src ShardSnapshotSource, opts Options) (*ShardedResult, error) {
	r, err := whereLive(data, opts,
		func() (*shard.Snapshot, uint64) { s := src.Snapshot(); return s, s.Gen },
		func(s *shard.Snapshot) []liveCluster[shard.QueryID] {
			cls := make([]liveCluster[shard.QueryID], len(s.Clusters))
			for i := range s.Clusters {
				ids := s.Clusters[i].IDs
				cls[i] = liveCluster[shard.QueryID]{s.Clusters[i].Snap, func(id registry.QueryID) shard.QueryID { return ids[id] }}
			}
			return cls
		})
	if err != nil {
		return nil, err
	}
	return &ShardedResult{Verdicts: r.verdicts, Gens: r.gens, LatencySum: r.lat, ShardedMetrics: ShardedMetrics(r.m)}, nil
}
