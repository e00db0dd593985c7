package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// diffVerdicts reports the first per-record notification-set divergence
// between two live passes. It is all that is comparable across two registry
// topologies over the same queries — per-cluster merged programs
// legitimately cost differently than one global merged program.
func diffVerdicts(label string, ref, got *engine.ShardedResult) string {
	if len(ref.Verdicts) != len(got.Verdicts) {
		return fmt.Sprintf("%s: %d verdict rows, reference has %d", label, len(got.Verdicts), len(ref.Verdicts))
	}
	for i := range ref.Verdicts {
		if len(ref.Verdicts[i]) != len(got.Verdicts[i]) {
			return fmt.Sprintf("%s: record %d has %d verdicts, reference %d", label, i, len(got.Verdicts[i]), len(ref.Verdicts[i]))
		}
		for id, v := range ref.Verdicts[i] {
			gv, ok := got.Verdicts[i][id]
			if !ok || gv != v {
				return fmt.Sprintf("%s: verdict [record %d, query %d] is %v/%v, reference says %v", label, i, id, gv, ok, v)
			}
		}
	}
	return ""
}

// diffSharded reports the first divergence between two passes over one
// registry: verdict maps, generation stamps, abstract costs (total and guard
// share), admission counts, pending/suppression counts, or per-query latency
// stamp sums. Batches, Swaps, and wall-clock fields are dispatch-shaped and
// exempt.
func diffSharded(label string, ref, got *engine.ShardedResult) string {
	if msg := diffVerdicts(label, ref, got); msg != "" {
		return msg
	}
	for i := range ref.Gens {
		if ref.Gens[i] != got.Gens[i] {
			return fmt.Sprintf("%s: record %d admitted at gen %d, reference gen %d", label, i, got.Gens[i], ref.Gens[i])
		}
	}
	if ref.UDFCost != got.UDFCost {
		return fmt.Sprintf("%s: UDF cost %d, reference %d", label, got.UDFCost, ref.UDFCost)
	}
	if ref.GuardCost != got.GuardCost {
		return fmt.Sprintf("%s: guard cost %d, reference %d", label, got.GuardCost, ref.GuardCost)
	}
	if ref.Admitted != got.Admitted || ref.Rejected != got.Rejected {
		return fmt.Sprintf("%s: admitted/rejected %d/%d, reference %d/%d",
			label, got.Admitted, got.Rejected, ref.Admitted, ref.Rejected)
	}
	if ref.PendingRuns != got.PendingRuns || ref.SuppressedNotifies != got.SuppressedNotifies {
		return fmt.Sprintf("%s: pending/suppressed %d/%d, reference %d/%d",
			label, got.PendingRuns, got.SuppressedNotifies, ref.PendingRuns, ref.SuppressedNotifies)
	}
	if len(ref.LatencySum) != len(got.LatencySum) {
		return fmt.Sprintf("%s: %d latency entries, reference %d", label, len(got.LatencySum), len(ref.LatencySum))
	}
	for id, v := range ref.LatencySum {
		if got.LatencySum[id] != v {
			return fmt.Sprintf("%s: latency stamp sum of query %d is %d, reference %d", label, id, got.LatencySum[id], v)
		}
	}
	return ""
}

// CheckSharded holds the similarity-sharded registry to its equivalence
// contract on a generated batch under churn: the batch's (total-notify)
// queries are subscribed, in the same order, to two ShardedRegistry
// configurations — MaxClusterSize 2, so routing and rebalance splits spread
// them across several clusters, and the global one (a single cluster that
// never splits). Add/Remove events interleave with record passes, and at
// every step the sharded pass must notify exactly the queries the global
// one does (dirty delta snapshots included), while every Workers/BatchSize
// combination of WhereSharded on either configuration must reproduce its
// own record-at-a-time reference byte-identically — verdicts, generation
// stamps, abstract costs, admission counts, and latency stamp sums. nil
// means every step matched.
func CheckSharded(b *Batch, events int) *Failure {
	if len(b.Inputs) == 0 {
		return nil
	}
	udfs, f := engineUDFs(b)
	if f != nil || len(udfs) < 2 {
		return f
	}

	d := newInputLibrary(b.Inputs)
	pf := &prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()}
	// regs[0] is the sharded configuration, regs[1] the global one.
	names := [2]string{"sharded", "global"}
	var regs [2]*shard.ShardedRegistry
	for i, size := range [2]int{2, math.MaxInt} {
		r, err := shard.New(shard.Options{
			Registry:       registry.Options{Prefilter: pf},
			MaxClusterSize: size,
			MinSimilarity:  -1,
		})
		if err != nil {
			return failf(CheckErr, b, "shard.New (%s): %v", names[i], err)
		}
		regs[i] = r
	}
	shardFail := func(msg string) *Failure {
		f := failf(CheckShard, b, "%s", msg)
		f.Events = events
		return f
	}

	// Both registries see the same Add sequence, so they hand out the same
	// ids and their verdict maps are directly comparable.
	var live []shard.QueryID
	clones := 0
	add := func(src *lang.Program) *Failure {
		q := *src
		q.Name = fmt.Sprintf("%s_s%d", src.Name, clones)
		clones++
		var ids [2]shard.QueryID
		for i, r := range regs {
			id, err := r.Add(&q)
			if err != nil {
				return failf(CheckErr, b, "%s Add(%s): %v", names[i], q.Name, err)
			}
			ids[i] = id
		}
		if ids[0] != ids[1] {
			return failf(CheckErr, b, "Add(%s): sharded id %d, global id %d", q.Name, ids[0], ids[1])
		}
		live = append(live, ids[0])
		return nil
	}

	// pass runs both configurations record-at-a-time on their current
	// snapshots (flushed or dirty) and diffs the notification sets.
	pass := func(event string) (refs [2]*engine.ShardedResult, f *Failure) {
		for i, r := range regs {
			ref, err := engine.WhereSharded(d, r, engine.Options{Workers: 1, BatchSize: 1})
			if err != nil {
				return refs, failf(CheckErr, b, "%s WhereSharded after %s: %v", names[i], event, err)
			}
			refs[i] = ref
		}
		if msg := diffVerdicts("sharded vs global after "+event, refs[1], refs[0]); msg != "" {
			return refs, shardFail(msg)
		}
		return refs, nil
	}
	// matrix re-runs both configurations at adversarial Workers/BatchSize
	// combinations against their record-at-a-time references.
	rng := rand.New(rand.NewSource(b.Seed ^ 0x51A2DB01))
	matrix := func(event string, refs [2]*engine.ShardedResult) *Failure {
		return parityMatrix(len(b.Inputs), rng, func(opts engine.Options, wb string) *Failure {
			for i, r := range regs {
				label := fmt.Sprintf("%s after %s, %s", names[i], event, wb)
				got, err := engine.WhereSharded(d, r, opts)
				if err != nil {
					return failf(CheckErr, b, "WhereSharded %s: %v", label, err)
				}
				if msg := diffSharded(label, refs[i], got); msg != "" {
					return shardFail(msg)
				}
			}
			return nil
		})
	}
	flush := func(event string) *Failure {
		for i, r := range regs {
			if _, err := r.Flush(); err != nil {
				return failf(CheckErr, b, "%s Flush after %s: %v", names[i], event, err)
			}
		}
		return nil
	}

	for _, p := range udfs {
		if f := add(p); f != nil {
			return f
		}
	}
	if f := flush("initial adds"); f != nil {
		return f
	}
	refs, f := pass("initial adds")
	if f != nil {
		return f
	}
	if f := matrix("initial adds", refs); f != nil {
		return f
	}

	for e := 0; e < events; e++ {
		var event string
		if len(live) == 0 || rng.Intn(2) == 0 {
			if f := add(udfs[rng.Intn(len(udfs))]); f != nil {
				return f
			}
			event = fmt.Sprintf("event %d (add)", e)
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			for k, r := range regs {
				if err := r.Remove(id); err != nil {
					return failf(CheckErr, b, "%s Remove(%d): %v", names[k], id, err)
				}
			}
			event = fmt.Sprintf("event %d (remove)", e)
		}
		// Dirty pass first: delta snapshots (pending verbatim queries,
		// suppressed removals) must already agree across topologies.
		if _, f := pass(event + ", dirty"); f != nil {
			return f
		}
		if f := flush(event); f != nil {
			return f
		}
		refs, f := pass(event + ", flushed")
		if f != nil {
			return f
		}
		// The full matrix once more on the final state; mid-churn events
		// settle for the record-at-a-time diffs above.
		if e == events-1 {
			if f := matrix(event, refs); f != nil {
				return f
			}
		}
	}
	return nil
}
