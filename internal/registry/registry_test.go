package registry

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

// scratch runs the same builder over the registry's surviving leaves from
// scratch: fresh options, fresh cache, no memo.
func scratch(t *testing.T, leaves []consolidate.Leaf) *lang.Program {
	t.Helper()
	merged, _, err := consolidate.Build(leaves, consolidate.DefaultOptions(), runtime.GOMAXPROCS(0), nil)
	if err != nil {
		t.Fatalf("from-scratch build: %v", err)
	}
	return merged
}

// TestIncrementalEquivalence is the tentpole property: after any seeded
// sequence of Add/Remove operations, the registry's consolidated program
// is byte-identical to the builder run from scratch, without a memo, over
// the registry's (QueryID, program) leaves. Runs in CI under -race.
func TestIncrementalEquivalence(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 40, 7)
	rng := rand.New(rand.NewSource(11))

	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}

	var live []QueryID
	next := 0
	add := func() {
		id, err := r.Add(pool[next%len(pool)])
		if err != nil {
			t.Fatal(err)
		}
		next++
		live = append(live, id)
	}
	remove := func() {
		i := rng.Intn(len(live))
		if err := r.Remove(live[i]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
	}

	for i := 0; i < 10; i++ {
		add()
	}
	check := func(step string) {
		snap, err := r.Flush()
		if err != nil {
			t.Fatalf("%s: flush: %v", step, err)
		}
		if !snap.Clean() {
			t.Fatalf("%s: flushed snapshot not clean", step)
		}
		progs := r.Leaves()
		if len(progs) == 0 {
			if snap.Merged != nil {
				t.Fatalf("%s: empty registry kept a merged program", step)
			}
			return
		}
		want := lang.Format(scratch(t, progs))
		if got := lang.Format(snap.Merged); got != want {
			t.Fatalf("%s: registry output differs from the from-scratch build\n--- registry ---\n%s\n--- scratch ---\n%s",
				step, got, want)
		}
		if len(snap.Slots) != len(progs) {
			t.Fatalf("%s: %d slots for %d programs", step, len(snap.Slots), len(progs))
		}
	}
	check("initial")

	for op := 0; op < 14; op++ {
		// Biased churn so the size drifts through empty and back.
		if len(live) > 0 && (rng.Intn(3) == 0 || len(live) > 14) {
			remove()
		} else {
			add()
		}
		if op%3 == 2 {
			check(fmt.Sprintf("op %d", op))
		}
	}
	// Drain to empty and regrow: exercises cache clearing and re-seeding.
	for len(live) > 0 {
		remove()
	}
	check("drained")
	for i := 0; i < 5; i++ {
		add()
	}
	check("regrown")
}

// TestIncrementalReusesSubtrees asserts the O(log N) claim structurally: a
// single Add to a built registry of n queries recomputes only the pairs on
// the new leaf's root path, reusing every sibling subtree.
func TestIncrementalReusesSubtrees(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 40, 3)
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	for i := 0; i < n; i++ {
		if _, err := r.Add(pool[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Build.PairsMerged != n-1 {
		t.Fatalf("cold build merged %d pairs, want %d", snap.Build.PairsMerged, n-1)
	}

	if _, err := r.Add(pool[n]); err != nil {
		t.Fatal(err)
	}
	snap, err = r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// 33 leaves: the new leaf is carried up to the root merge — one new
	// pair; the 32-leaf subtree is fully reused.
	if snap.Build.PairsMerged > 6 {
		t.Fatalf("incremental add recomputed %d pairs, want O(log n)", snap.Build.PairsMerged)
	}
	if snap.Build.NodesReused == 0 {
		t.Fatal("incremental add reused no subtrees")
	}

	// Removing an interior query swaps the last leaf in: two root paths.
	if err := r.Remove(snap.Slots[3]); err != nil {
		t.Fatal(err)
	}
	snap, err = r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Build.PairsMerged > 2*6 {
		t.Fatalf("incremental remove recomputed %d pairs, want O(log n)", snap.Build.PairsMerged)
	}
	if got := r.Stats(); got.CachedNodes == 0 || got.Builds != 3 {
		t.Fatalf("registry stats: %+v", got)
	}
}

// TestSwapRemoveReusesLeaves pins the memo's leaf reuse: when Remove
// swap-moves the last query into the freed slot, the rebuild prepares only
// that moved query again — every leaf that kept its slot comes from the
// memo — and re-merges at most the two changed root paths.
func TestSwapRemoveReusesLeaves(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 10, 3)
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pool {
		if _, err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Build.LeavesPrepared != len(pool) {
		t.Fatalf("cold build prepared %d leaves, want %d", snap.Build.LeavesPrepared, len(pool))
	}
	moved := snap.Slots[len(pool)-1]
	if err := r.Remove(snap.Slots[3]); err != nil {
		t.Fatal(err)
	}
	snap, err = r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Slots[3] != moved {
		t.Fatalf("slot 3 holds query %d, want the swap-moved query %d", snap.Slots[3], moved)
	}
	if snap.Build.LeavesPrepared != 1 {
		t.Fatalf("rebuild prepared %d leaves; only the moved query needs it", snap.Build.LeavesPrepared)
	}
	n := len(pool) - 1
	logN := 0
	for 1<<logN < n {
		logN++
	}
	if snap.Build.PairsMerged > 2*logN {
		t.Fatalf("swap-remove recomputed %d pairs, want at most 2·⌈log₂%d⌉ = %d", snap.Build.PairsMerged, n, 2*logN)
	}
}

// TestDeltaSnapshots checks the liveness bridge between a change and the
// next rebuild: adds run verbatim as Pending, removes of built queries are
// suppressed via Removed, and removes of still-pending queries simply drop
// them.
func TestDeltaSnapshots(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 10, 5)
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}

	a, _ := r.Add(pool[0])
	b, _ := r.Add(pool[1])
	if _, err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	c, _ := r.Add(pool[2])
	snap := r.Snapshot()
	if len(snap.Pending) != 1 || snap.Pending[0].ID != c {
		t.Fatalf("pending delta wrong: %+v", snap.Pending)
	}
	ids := snap.LiveIDs()
	if len(ids) != 3 {
		t.Fatalf("LiveIDs = %v", ids)
	}

	// Remove a built query: suppressed, still in Slots.
	if err := r.Remove(a); err != nil {
		t.Fatal(err)
	}
	snap = r.Snapshot()
	if !snap.Removed[a] || len(snap.Slots) != 2 {
		t.Fatalf("removed delta wrong: %+v", snap)
	}
	if got := snap.LiveIDs(); len(got) != 2 {
		t.Fatalf("LiveIDs after remove = %v", got)
	}

	// Remove the pending query before it was ever consolidated.
	if err := r.Remove(c); err != nil {
		t.Fatal(err)
	}
	if snap = r.Snapshot(); len(snap.Pending) != 0 {
		t.Fatalf("pending not dropped: %+v", snap.Pending)
	}

	final, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Clean() || len(final.Slots) != 1 || final.Slots[0] != b {
		t.Fatalf("final snapshot: %+v", final)
	}
	if r.Size() != 1 {
		t.Fatalf("size = %d", r.Size())
	}
}

// TestValidation covers Add/Remove rejection paths.
func TestValidation(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(lang.MustParse("func two(r) { notify 1 true; notify 2 false; }")); err == nil {
		t.Error("query notifying two ids must be rejected")
	}
	if _, err := r.Add(lang.MustParse("func ok(r) { notify 1 (price(r) < 10); }")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(lang.MustParse("func mismatch(x) { notify 1 (x < 10); }")); err == nil {
		t.Error("parameter mismatch must be rejected")
	}
	if err := r.Remove(QueryID(999)); err == nil {
		t.Error("unknown id must be rejected")
	}
}

// TestRegistryStartsNoGoroutine pins the registry as passive: it
// has no lifecycle of its own, so New, Add and Rebuild leave no goroutine
// behind (a rebuild's parallel pair merges are joined before it returns).
func TestRegistryStartsNoGoroutine(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 8, 9)
	before := runtime.NumGoroutine()
	r, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pool {
		if _, err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// A joined merge goroutine may still be on its way out: give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before New/Add/Rebuild, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentChurnRace drives Add/Remove/Snapshot/Rebuild from many
// goroutines; meaningful mainly under -race, and finishes with the
// equivalence check.
func TestConcurrentChurnRace(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 64, 13)
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var live []QueryID
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 12; i++ {
				if rng.Intn(3) == 0 {
					mu.Lock()
					if len(live) > 0 {
						id := live[rng.Intn(len(live))]
						live = removeID(live, id)
						mu.Unlock()
						_ = r.Remove(id)
						continue
					}
					mu.Unlock()
				}
				id, err := r.Add(pool[(w*12+i)%len(pool)])
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				live = append(live, id)
				mu.Unlock()
			}
		}(w)
	}
	// A rebuilder re-consolidates and a reader hammers snapshots while
	// churn is in flight.
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(2)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Rebuild(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer reader.Done()
		var lastGen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if s.Gen < lastGen {
				t.Error("generation went backwards")
				return
			}
			lastGen = s.Gen
			s.LiveIDs()
		}
	}()
	churn.Wait()
	close(stop)
	reader.Wait()

	snap, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	progs := r.Leaves()
	if len(progs) > 0 {
		if lang.Format(snap.Merged) != lang.Format(scratch(t, progs)) {
			t.Fatal("post-churn registry output differs from the from-scratch build")
		}
	}
}

func removeID(ids []QueryID, id QueryID) []QueryID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}
