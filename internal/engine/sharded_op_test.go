package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// liveConfigs are the two registry topologies the live-pass tests run on:
// one uncapped cluster — a single global merge tree over every query — and
// clusters of at most two, so routing and rebalance splits are in play.
var liveConfigs = []struct {
	name       string
	maxCluster int
}{
	{"one-cluster", math.MaxInt},
	{"clusters", 2},
}

// sameVerdicts asserts two live passes notified the same queries with the
// same verdicts on every record.
func sameVerdicts(t *testing.T, label string, ref, got *ShardedResult) {
	t.Helper()
	if len(ref.Verdicts) != len(got.Verdicts) {
		t.Fatalf("%s: %d verdict rows, reference %d", label, len(got.Verdicts), len(ref.Verdicts))
	}
	for i := range ref.Verdicts {
		if len(ref.Verdicts[i]) != len(got.Verdicts[i]) {
			t.Fatalf("%s: record %d has %d verdicts, reference %d", label, i, len(got.Verdicts[i]), len(ref.Verdicts[i]))
		}
		for id, v := range ref.Verdicts[i] {
			gv, ok := got.Verdicts[i][id]
			if !ok || gv != v {
				t.Fatalf("%s: record %d query %d = %v/%v, reference %v", label, i, id, gv, ok, v)
			}
		}
	}
}

// sameSharded asserts every deterministic field of a live pass matches the
// reference: verdict maps, generation stamps, costs, guard shares, admission
// counts, pending/suppression counts and per-query latency stamps.
// Batches/Swaps/wall times depend on dispatch shape and are excluded.
func sameSharded(t *testing.T, label string, ref, got *ShardedResult) {
	t.Helper()
	sameVerdicts(t, label, ref, got)
	for i := range ref.Gens {
		if ref.Gens[i] != got.Gens[i] {
			t.Fatalf("%s: record %d gen %d, reference %d", label, i, got.Gens[i], ref.Gens[i])
		}
	}
	if ref.UDFCost != got.UDFCost || ref.GuardCost != got.GuardCost {
		t.Fatalf("%s: cost %d/%d, reference %d/%d", label, got.UDFCost, got.GuardCost, ref.UDFCost, ref.GuardCost)
	}
	if ref.Admitted != got.Admitted || ref.Rejected != got.Rejected {
		t.Fatalf("%s: admitted/rejected %d/%d, reference %d/%d",
			label, got.Admitted, got.Rejected, ref.Admitted, ref.Rejected)
	}
	if ref.PendingRuns != got.PendingRuns || ref.SuppressedNotifies != got.SuppressedNotifies {
		t.Fatalf("%s: pending/suppressed %d/%d, reference %d/%d",
			label, got.PendingRuns, got.SuppressedNotifies, ref.PendingRuns, ref.SuppressedNotifies)
	}
	if len(ref.LatencySum) != len(got.LatencySum) {
		t.Fatalf("%s: %d latency entries, reference %d", label, len(got.LatencySum), len(ref.LatencySum))
	}
	for id, v := range ref.LatencySum {
		if got.LatencySum[id] != v {
			t.Fatalf("%s: latency stamp sum of query %d is %d, reference %d", label, id, got.LatencySum[id], v)
		}
	}
}

// shardedFixture builds a registry with guard synthesis enabled over gated
// UDFs; every query joins the most similar cluster, so maxCluster alone
// decides the topology. Two fixtures over the same arguments hand out the
// same ids.
func shardedFixture(t *testing.T, d *liteToy, nUDFs, maxCluster int) (*shard.ShardedRegistry, []shard.QueryID) {
	t.Helper()
	sh, err := shard.New(shard.Options{
		Registry:       registry.Options{Prefilter: &prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()}},
		MaxClusterSize: maxCluster,
		MinSimilarity:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []shard.QueryID
	for _, p := range gatedToyUDFs(nUDFs, 60) {
		id, err := sh.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return sh, ids
}

// TestWhereShardedQuiet checks the operator against WhereMany on a
// registry with no churn: one clean generation, identical verdicts, no
// swaps and no verbatim runs.
func TestWhereShardedQuiet(t *testing.T) {
	for _, cfg := range liveConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			d := toy(150)
			udfs := thresholdUDFs(10, 25, 40)
			sh, err := shard.New(shard.Options{MaxClusterSize: cfg.maxCluster, MinSimilarity: -1})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]shard.QueryID, len(udfs))
			for i, p := range udfs {
				if ids[i], err = sh.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sh.Flush(); err != nil {
				t.Fatal(err)
			}

			res, err := WhereSharded(d, sh, Options{})
			if err != nil {
				t.Fatal(err)
			}
			many, err := WhereMany(toy(150), udfs, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Verdicts {
				if len(res.Verdicts[i]) != len(udfs) {
					t.Fatalf("record %d: %d verdicts, want %d", i, len(res.Verdicts[i]), len(udfs))
				}
				for q, id := range ids {
					if res.Verdicts[i][id] != many.Bools[i][q] {
						t.Fatalf("record %d query %d: registry %v, whereMany %v",
							i, q, res.Verdicts[i][id], many.Bools[i][q])
					}
				}
			}
			if res.Swaps != 0 || res.PendingRuns != 0 || res.SuppressedNotifies != 0 {
				t.Fatalf("quiet registry produced swap activity: %+v", res.ShardedMetrics)
			}
		})
	}
}

// TestWhereShardedParityMatrix is the live operator's correctness
// criterion: against a quiescent registry with multiple guarded clusters
// and a quiescent one-cluster registry over the same queries, every
// Workers × BatchSize combination reproduces the configuration's own
// W=1/B=1 reference byte-identically, and per-query verdicts agree across
// the two — clean, and again under pending/removed delta state.
func TestWhereShardedParityMatrix(t *testing.T) {
	const n = 271 // ragged against every batch size below
	d := newLiteToy(n)
	var regs [2]*shard.ShardedRegistry
	var ids []shard.QueryID
	for i, cfg := range liveConfigs {
		regs[i], ids = shardedFixture(t, d, 6, cfg.maxCluster)
		snap, err := regs[i].Flush()
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 3}[i]; len(snap.Clusters) < want {
			t.Fatalf("%s: expected >=%d clusters, got %d", cfg.name, want, len(snap.Clusters))
		}
		for _, cs := range snap.Clusters {
			if cs.Snap.Guard == nil || cs.Snap.Guard.Trivial {
				t.Fatalf("%s: cluster %d has no non-trivial guard; the two-level stage would be skipped", cfg.name, cs.ID)
			}
		}
	}

	phase := func(label string) {
		var refs [2]*ShardedResult
		for i, cfg := range liveConfigs {
			ref, err := WhereSharded(d, regs[i], Options{Workers: 1, BatchSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rejected == 0 || ref.Admitted == 0 {
				t.Fatalf("%s/%s: degenerate admission split %d/%d", label, cfg.name, ref.Admitted, ref.Rejected)
			}
			refs[i] = ref
			for _, bs := range []int{1, 7, 64, n, 512} {
				for _, w := range []int{1, 2, 4} {
					got, err := WhereSharded(d, regs[i], Options{Workers: w, BatchSize: bs})
					if err != nil {
						t.Fatal(err)
					}
					runLabel := fmt.Sprintf("%s/%s/workers=%d/batch=%d", label, cfg.name, w, bs)
					sameSharded(t, runLabel, ref, got)
					wantBatches := (n + bs - 1) / bs
					if bs > n {
						wantBatches = 1
					}
					if got.Batches != wantBatches {
						t.Fatalf("%s: %d batches, want %d", runLabel, got.Batches, wantBatches)
					}
				}
			}
		}
		sameVerdicts(t, label+"/clusters-vs-one-cluster", refs[0], refs[1])
	}

	phase("clean")

	// Delta state: one pending query (rebuilds are manual, so it stays
	// pending) and one removal suppressed against the stale merged program,
	// on both registries.
	for _, sh := range regs {
		if _, err := sh.Add(lang.MustParse(`func pend(r) { notify 3 (val(r) > 10); }`)); err != nil {
			t.Fatal(err)
		}
		if err := sh.Remove(ids[0]); err != nil {
			t.Fatal(err)
		}
		if sh.Snapshot().Clean() {
			t.Fatal("delta phase snapshot unexpectedly clean")
		}
	}
	phase("delta")
}

// recordingSource wraps a registry and remembers, for every generation it
// actually served, the live query set at serve time — the ground truth for
// "which queries were subscribed when this record was admitted".
type recordingSource struct {
	sh     *shard.ShardedRegistry
	mu     sync.Mutex
	liveAt map[uint64][]shard.QueryID
}

func (s *recordingSource) Snapshot() *shard.Snapshot {
	snap := s.sh.Snapshot()
	s.mu.Lock()
	if _, ok := s.liveAt[snap.Gen]; !ok {
		s.liveAt[snap.Gen] = snap.LiveIDs()
	}
	s.mu.Unlock()
	return snap
}

// slowToy stretches the streaming pass so concurrent churn lands mid-stream;
// its clones keep the delay, so a multi-worker pass is stretched too.
type slowToy struct {
	*toyData
	delay time.Duration
}

func (s *slowToy) SetRecord(i int) {
	time.Sleep(s.delay)
	s.toyData.SetRecord(i)
}
func (s *slowToy) Clone() RecordLibrary {
	return &slowToy{s.toyData.Clone().(*toyData), s.delay}
}

// TestWhereShardedHotSwapChurn is the hot-swap safety criterion: while
// records stream through the operator, queries subscribe and unsubscribe
// concurrently and the cluster workers re-consolidate in the background.
// Every record must be notified by exactly the queries that were live in
// the generation that admitted it — no drops, no double notifications — and
// every verdict must equal the original UDF run alone on that record.
func TestWhereShardedHotSwapChurn(t *testing.T) {
	// Batch-size matrix: 1 is the record-at-a-time reference, 7 a ragged
	// size that never divides the stream evenly, 32 a round one. Swaps may
	// only land at batch boundaries — asserted below against Gens — so the
	// sizes stay small enough that churn still lands mid-stream. With four
	// workers, concurrent batches may be admitted by different generations;
	// both invariants are per batch and hold regardless.
	for _, cfg := range liveConfigs {
		for _, workers := range []int{1, 4} {
			for _, bsize := range []int{1, 7, 32} {
				t.Run(fmt.Sprintf("%s/workers=%d/batch=%d", cfg.name, workers, bsize), func(t *testing.T) {
					testWhereShardedHotSwapChurn(t, cfg.maxCluster, workers, bsize)
				})
			}
		}
	}
}

func testWhereShardedHotSwapChurn(t *testing.T, maxCluster, workers, bsize int) {
	data := &slowToy{toy(800), 40 * time.Microsecond}
	// Registry.Workers > 1: background re-consolidation runs its
	// divide-and-conquer merges in parallel while the storm lands, so swaps
	// arrive from a concurrent rebuild, not just the Add/Remove deltas.
	sh, err := shard.New(shard.Options{
		Registry:       registry.Options{Workers: 2},
		MaxClusterSize: maxCluster,
		MinSimilarity:  -1,
		Debounce:       2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	var pm sync.Mutex
	progs := map[shard.QueryID]*lang.Program{}
	notifyID := map[shard.QueryID]int{}
	var live []shard.QueryID
	add := func(p *lang.Program) {
		id, err := sh.Add(p)
		if err != nil {
			t.Error(err)
			return
		}
		nid := 0
		for i := range lang.NotifyIDs(p.Body) {
			nid = i
		}
		pm.Lock()
		progs[id] = p
		notifyID[id] = nid
		live = append(live, id)
		pm.Unlock()
	}
	for _, p := range thresholdUDFs(10, 20, 30, 40) {
		add(p)
	}
	if _, err := sh.Flush(); err != nil {
		t.Fatal(err)
	}

	// Churn while the stream below is in flight. Added queries use a notify
	// id ≠ their eventual slot, so the verbatim pending path is exercised
	// with non-trivial renumbering.
	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(42))
		extra := thresholdUDFs(5, 15, 22, 28, 33, 38, 44, 48)
		for i := range extra {
			extra[i].Body = lang.RenameNotifyIDs(extra[i].Body, func(int) int { return 7 })
		}
		for i := 0; i < 24; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			pm.Lock()
			doRemove := len(live) > 2 && rng.Intn(2) == 0
			var victim shard.QueryID
			if doRemove {
				k := rng.Intn(len(live))
				victim = live[k]
				live = append(live[:k], live[k+1:]...)
			}
			pm.Unlock()
			if doRemove {
				if err := sh.Remove(victim); err != nil {
					t.Error(err)
					return
				}
			} else {
				add(extra[i%len(extra)])
			}
			time.Sleep(time.Millisecond)
		}
	}()

	src := &recordingSource{sh: sh, liveAt: map[uint64][]shard.QueryID{}}
	res, err := WhereSharded(data, src, Options{Workers: workers, BatchSize: bsize})
	close(stopChurn)
	churn.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if res.Swaps == 0 {
		t.Fatal("no generation swap landed mid-stream; churn did not overlap the pass")
	}
	if res.Batches != (800+bsize-1)/bsize {
		t.Fatalf("got %d batches for 800 records at batch size %d", res.Batches, bsize)
	}
	// A generation swap must never split a batch: Gens is constant on
	// every batch span.
	for lo := 0; lo < len(res.Gens); lo += bsize {
		hi := min(lo+bsize, len(res.Gens))
		for i := lo + 1; i < hi; i++ {
			if res.Gens[i] != res.Gens[lo] {
				t.Fatalf("generation swap split batch [%d,%d): gen %d at %d vs gen %d at %d",
					lo, hi, res.Gens[lo], lo, res.Gens[i], i)
			}
		}
	}
	// Exactness: record i's verdict key set is the live set of its
	// admitting generation — queries removed before admission are silent,
	// queries added before admission notify.
	check := toy(800)
	interpLib := toy(800)
	for i, verdicts := range res.Verdicts {
		want := src.liveAt[res.Gens[i]]
		if len(verdicts) != len(want) {
			t.Fatalf("record %d (gen %d): %d notifications for %d live queries",
				i, res.Gens[i], len(verdicts), len(want))
		}
		for _, id := range want {
			got, ok := verdicts[id]
			if !ok {
				t.Fatalf("record %d (gen %d): live query %d was not notified", i, res.Gens[i], id)
			}
			// Verdict matches the original UDF run alone on this record.
			pm.Lock()
			p, nid := progs[id], notifyID[id]
			pm.Unlock()
			interpLib.SetRecord(i)
			r, err := lang.NewInterp(interpLib).Run(p, []int64{int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			if r.Notes[nid] != got {
				t.Fatalf("record %d query %d: got %v, UDF alone says %v (val=%d)",
					i, id, got, r.Notes[nid], check.vals[i])
			}
		}
	}
	t.Logf("swaps=%d pendingRuns=%d suppressed=%d gens=%d",
		res.Swaps, res.PendingRuns, res.SuppressedNotifies, len(src.liveAt))
}

// TestWhereShardedErrorJoinsWorkers pins the error path: a query whose
// library call cannot resolve fails the pass, and no worker goroutine may
// outlive it.
func TestWhereShardedErrorJoinsWorkers(t *testing.T) {
	const n = 400
	baseline := runtime.NumGoroutine()
	d := newLiteToy(n)
	sh, _ := shardedFixture(t, d, 4, 2)
	if _, err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	// The pending query calls a function the dataset does not provide; the
	// runner surfaces it at evaluation time on every record.
	if _, err := sh.Add(lang.MustParse(`func boom(r) { notify 9 (missing(r) > 0); }`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := WhereSharded(d, sh, Options{Workers: 4, BatchSize: 16}); err == nil {
			t.Fatal("expected the unresolved call to fail the pass")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after failed sharded passes: %d at baseline, %d now",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
