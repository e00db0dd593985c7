package engine

import (
	"time"

	"consolidation/internal/registry"
)

// SnapshotSource serves generation-numbered registry snapshots; it is the
// seam between the engine and internal/registry. *registry.Registry
// implements it, and tests wrap it to observe exactly which generation
// admitted each record.
type SnapshotSource interface {
	Snapshot() *registry.Snapshot
}

// RegistryMetrics summarises one WhereRegistry pass.
type RegistryMetrics struct {
	Records int
	// Batches counts batch dispatches; Swaps counts generation changes a
	// worker picked up mid-stream (so with several workers it depends on
	// scheduling). Each swap took effect atomically at a batch boundary, so
	// Swaps <= Batches and every record of a batch was evaluated against
	// the same generation.
	Batches int
	Swaps   int
	// PendingRuns counts verbatim executions of not-yet-consolidated
	// queries; SuppressedNotifies counts notifications dropped because the
	// query unsubscribed after the running program was built. Both are zero
	// while the served snapshots are clean.
	PendingRuns        int
	SuppressedNotifies int
	// UDFCost is the summed abstract cost (consolidated program plus
	// verbatim pending queries and guard evaluations).
	UDFCost   int64
	UDFTime   time.Duration
	TotalTime time.Duration
	// Admitted and Rejected count the admission guard's verdicts on the
	// consolidated program (records served by generations without a
	// non-trivial guard count as admitted). GuardCost is the guard's share
	// of UDFCost.
	Admitted  int
	Rejected  int
	GuardCost int64
}

// RegistryResult is the outcome of streaming a dataset through a live
// registry. Verdicts are keyed by QueryID — slot positions are unstable
// across generations — and Gens records the generation that admitted each
// record, so callers can audit exactly which query set each record was
// evaluated against.
type RegistryResult struct {
	Verdicts []map[registry.QueryID]bool
	Gens     []uint64
	RegistryMetrics
}

// WhereRegistry streams every record through the registry's current
// consolidated program, hot-swapping to a new generation only between
// batches: the snapshot is loaded once per batch, so each batch sees
// exactly one query set — no drops, no double notifications, even while
// Add/Remove churn and background re-consolidation are in flight. Queries
// still pending consolidation run verbatim alongside the stale merged
// program; queries removed since it was built are suppressed by id.
//
// The pass is the live pass (see whereLive) over one cluster whose ids are
// already the caller's: multi-worker, with "the query set when this record
// was admitted" well-defined per batch and recorded in Gens.
func WhereRegistry(data RecordLibrary, src SnapshotSource, opts Options) (*RegistryResult, error) {
	r, err := whereLive(data, opts,
		func() (*registry.Snapshot, uint64) { s := src.Snapshot(); return s, s.Gen },
		func(s *registry.Snapshot) []liveCluster[registry.QueryID] {
			return []liveCluster[registry.QueryID]{{s, func(id registry.QueryID) registry.QueryID { return id }}}
		})
	if err != nil {
		return nil, err
	}
	return &RegistryResult{Verdicts: r.verdicts, Gens: r.gens, RegistryMetrics: r.m}, nil
}
