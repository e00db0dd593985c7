package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/registry"
)

// recordingSource wraps a registry and remembers, for every generation it
// actually served, the live query set at serve time — the ground truth for
// "which queries were subscribed when this record was admitted".
type recordingSource struct {
	reg    *registry.Registry
	mu     sync.Mutex
	liveAt map[uint64][]registry.QueryID
}

func (s *recordingSource) Snapshot() *registry.Snapshot {
	snap := s.reg.Snapshot()
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

// TestWhereRegistryQuiet checks the operator against WhereMany on a
// registry with no churn: one clean generation, identical verdicts, no
// swaps and no verbatim runs.
func TestWhereRegistryQuiet(t *testing.T) {
	d := toy(150)
	udfs := thresholdUDFs(10, 25, 40)
	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ids := make([]registry.QueryID, len(udfs))
	for i, p := range udfs {
		if ids[i], err = reg.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := WhereRegistry(d, reg, Options{})
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
		t.Fatalf("quiet registry produced swap activity: %+v", res.RegistryMetrics)
	}
}

// TestWhereRegistryHotSwapChurn is the hot-swap safety criterion: while
// records stream through the operator, queries subscribe and unsubscribe
// concurrently and the background worker re-consolidates. Every record must
// be notified by exactly the queries that were live in the generation that
// admitted it — no drops, no double notifications — and every verdict must
// equal the original UDF run alone on that record.
func TestWhereRegistryHotSwapChurn(t *testing.T) {
	// Batch-size matrix: 1 is the record-at-a-time reference, 7 a ragged
	// size that never divides the stream evenly, 32 a round one. Swaps may
	// only land at batch boundaries — asserted below against Gens — so the
	// sizes stay small enough that churn still lands mid-stream. With four
	// workers, concurrent batches may be admitted by different generations;
	// both invariants are per batch and hold regardless.
	for _, workers := range []int{1, 4} {
		for _, bsize := range []int{1, 7, 32} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, bsize), func(t *testing.T) {
				testWhereRegistryHotSwapChurn(t, workers, bsize)
			})
		}
	}
}

func testWhereRegistryHotSwapChurn(t *testing.T, workers, bsize int) {
	data := &slowToy{toy(800), 40 * time.Microsecond}
	// Workers > 1: background re-consolidation runs its divide-and-conquer
	// merges in parallel while the storm lands, so swaps arrive from a
	// concurrent rebuild, not just the Add/Remove deltas.
	reg, err := registry.New(registry.Options{Debounce: 2 * time.Millisecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var pm sync.Mutex
	progs := map[registry.QueryID]*lang.Program{}
	notifyID := map[registry.QueryID]int{}
	var live []registry.QueryID
	add := func(p *lang.Program) {
		id, err := reg.Add(p)
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
	if _, err := reg.Flush(); err != nil {
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
			var victim registry.QueryID
			if doRemove {
				k := rng.Intn(len(live))
				victim = live[k]
				live = append(live[:k], live[k+1:]...)
			}
			pm.Unlock()
			if doRemove {
				if err := reg.Remove(victim); err != nil {
					t.Error(err)
					return
				}
			} else {
				add(extra[i%len(extra)])
			}
			time.Sleep(time.Millisecond)
		}
	}()

	src := &recordingSource{reg: reg, liveAt: map[uint64][]registry.QueryID{}}
	res, err := WhereRegistry(data, src, Options{Workers: workers, BatchSize: bsize})
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
		hi := lo + bsize
		if hi > len(res.Gens) {
			hi = len(res.Gens)
		}
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
