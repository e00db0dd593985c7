package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

// tempQuery and volQuery are two query families with disjoint call sets:
// signatures within a family overlap on the bare-function features, across
// families they share nothing.
func tempQuery(i int) *lang.Program {
	return lang.MustParse(fmt.Sprintf(
		"func temp%d(r) { t := avgTemp(r, %d); notify 1 (t > %d); }", i, 3+i%4, 20+i))
}

func volQuery(i int) *lang.Program {
	return lang.MustParse(fmt.Sprintf(
		"func vol%d(r) { v := volume(r); notify 1 (v > %d); }", i, 1000+i))
}

func mustAdd(t *testing.T, s *ShardedRegistry, p *lang.Program) QueryID {
	t.Helper()
	id, err := s.Add(p)
	if err != nil {
		t.Fatalf("Add(%s): %v", p.Name, err)
	}
	return id
}

// TestShardedClustering pins the routing invariant: queries from one
// family share a cluster, disjoint families never do, and the published
// cluster snapshots cover exactly the live set.
func TestShardedClustering(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var temps, vols []QueryID
	for i := 0; i < 3; i++ {
		temps = append(temps, mustAdd(t, s, tempQuery(i)))
		vols = append(vols, mustAdd(t, s, volQuery(i)))
	}
	if got := s.Stats().Clusters; got != 2 {
		t.Fatalf("expected 2 clusters for 2 disjoint families, got %d", got)
	}
	if got := s.Size(); got != 6 {
		t.Fatalf("Size() = %d, want 6", got)
	}

	// Each cluster's live ids must be exactly one family.
	snap := s.Snapshot()
	if len(snap.Clusters) != 2 {
		t.Fatalf("snapshot has %d clusters, want 2", len(snap.Clusters))
	}
	byCluster := map[int]map[QueryID]bool{}
	for _, cs := range snap.Clusters {
		ids := map[QueryID]bool{}
		for _, id := range cs.Snap.LiveIDs() {
			ids[QueryID(id)] = true
		}
		byCluster[cs.ID] = ids
	}
	for _, fam := range [][]QueryID{temps, vols} {
		var home int
		found := false
		for cid, ids := range byCluster {
			if ids[fam[0]] {
				home, found = cid, true
			}
		}
		if !found {
			t.Fatalf("query %d not live in any cluster", fam[0])
		}
		for _, id := range fam {
			if !byCluster[home][id] {
				t.Fatalf("family split across clusters: %d not in cluster %d", id, home)
			}
		}
	}

	// Flushing consolidates each cluster independently.
	fs, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Clean() {
		t.Fatal("flushed snapshot is not clean")
	}
	for _, cs := range fs.Clusters {
		if cs.Snap.Merged == nil {
			t.Fatalf("cluster %d has no merged program after Flush", cs.ID)
		}
	}
	if got := len(fs.LiveIDs()); got != 6 {
		t.Fatalf("flushed snapshot live ids = %d, want 6", got)
	}
}

// TestShardedSplit pins the rebalance path: a negative MinSimilarity herds
// both families into one cluster, and crossing MaxClusterSize splits it
// back apart along the similarity seam — every query staying live
// throughout, and every moved query keeping its id in its new cluster.
func TestShardedSplit(t *testing.T) {
	s, err := New(Options{MinSimilarity: -1, MaxClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 2; i++ {
		mustAdd(t, s, tempQuery(i))
		mustAdd(t, s, volQuery(i))
	}
	if got := s.Stats().Clusters; got != 1 {
		t.Fatalf("MinSimilarity<0 must keep one cluster, got %d", got)
	}
	mustAdd(t, s, tempQuery(2)) // 5th member: over the threshold
	st := s.Stats()
	if st.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", st.Splits)
	}
	if got := s.Stats().Clusters; got != 2 {
		t.Fatalf("expected 2 clusters after split, got %d", got)
	}
	if st.Moves == 0 || st.Moves >= 5 {
		t.Fatalf("split moved %d queries, expected a proper bipartition", st.Moves)
	}
	snap, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.LiveIDs()); got != 5 {
		t.Fatalf("live ids after split = %d, want 5", got)
	}
	// The split seam must separate the families: no cluster holds both an
	// avgTemp and a volume query. Ids were assigned in add order — temp0=1,
	// vol0=2, temp1=3, vol1=4, temp2=5 — and the moved queries, now built
	// into the fresh cluster, still carry theirs.
	seen := map[QueryID]bool{}
	for _, cs := range snap.Clusters {
		hasTemp, hasVol := false, false
		for _, id := range cs.Snap.Slots {
			if id < 1 || id > 5 || seen[QueryID(id)] {
				t.Fatalf("cluster %d: slot id %d is not one of the five added ids", cs.ID, id)
			}
			seen[QueryID(id)] = true
			if id%2 == 1 {
				hasTemp = true
			} else {
				hasVol = true
			}
		}
		if hasTemp && hasVol {
			t.Fatalf("cluster %d still mixes both families after split", cs.ID)
		}
		if cs.ID != 0 && len(cs.Snap.Slots) != int(st.Moves) {
			t.Fatalf("fresh cluster %d holds %d queries, split moved %d", cs.ID, len(cs.Snap.Slots), st.Moves)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("clusters' slots cover %d of the 5 ids", len(seen))
	}
}

// TestShardedRemove pins removal: unknown ids error, removed queries leave
// the live set, and a drained cluster is dropped entirely.
func TestShardedRemove(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var temps, vols []QueryID
	for i := 0; i < 2; i++ {
		temps = append(temps, mustAdd(t, s, tempQuery(i)))
		vols = append(vols, mustAdd(t, s, volQuery(i)))
	}
	if err := s.Remove(QueryID(99)); err == nil {
		t.Fatal("removing an unknown id must error")
	}
	if err := s.Remove(temps[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(temps[0]); err == nil {
		t.Fatal("double remove must error")
	}
	snap, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.LiveIDs()); got != 3 {
		t.Fatalf("live ids = %d, want 3", got)
	}
	// Drain the temp cluster entirely: it must be dropped.
	if err := s.Remove(temps[1]); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Clusters; got != 1 {
		t.Fatalf("drained cluster not dropped: %d clusters", got)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != len(vols) {
		t.Fatalf("Size() = %d, want %d", got, len(vols))
	}
	st := s.Stats()
	if st.Adds != 4 || st.Removes != 2 {
		t.Fatalf("stats adds/removes = %d/%d, want 4/2", st.Adds, st.Removes)
	}
}

// TestShardedAddValidation pins admission errors: a malformed query is
// rejected without leaking a cluster, every query takes exactly the record
// parameter, and parameter lists must agree across the whole shard, not
// just within a cluster.
func TestShardedAddValidation(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mustAdd(t, s, tempQuery(0))
	before := s.Stats().Clusters
	// Two notify ids: the cluster registry rejects it. The rejected query
	// belongs to a different family, so its routing opened a fresh cluster
	// that must be torn down again on failure.
	bad := lang.MustParse(`func bad(r) { v := volume(r); notify 1 (v > 0); notify 2 (v > 1); }`)
	if _, err := s.Add(bad); err == nil {
		t.Fatal("expected Add to reject a two-notify query")
	}
	if got := s.Stats().Clusters; got != before {
		t.Fatalf("failed Add leaked a cluster: %d -> %d", before, got)
	}
	if _, err := s.Add(lang.MustParse(`func wrong(a, b) { notify 1 (a > b); }`)); err == nil {
		t.Fatal("expected Add to reject a two-parameter query")
	}
	if _, err := s.Add(lang.MustParse(`func other(x) { notify 1 (avgTemp(x, 3) > 1); }`)); err == nil {
		t.Fatal("expected Add to reject a parameter-name mismatch")
	}
	if _, err := s.Add(nil); err == nil {
		t.Fatal("expected Add to reject nil")
	}
	if got := s.Size(); got != 1 {
		t.Fatalf("Size() = %d, want 1", got)
	}

	// A malformed first subscription must not fix the shard's parameter
	// list: it is rejected, and a valid query after it is accepted and
	// runs with the one record argument a live pass gives it.
	fresh, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Add(lang.MustParse(`func two(a, b) { notify 1 (a < b); }`)); err == nil {
		t.Fatal("expected Add to reject a two-parameter first query")
	}
	mustAdd(t, fresh, tempQuery(0))
	snap, err := fresh.Flush()
	if err != nil {
		t.Fatal(err)
	}
	lib := &lang.MapLibrary{}
	lib.Define("avgTemp", 1, func(args []int64) (int64, error) { return 30, nil })
	for _, cs := range snap.Clusters {
		rn := lang.NewRunner(cs.Snap.Compiled, lib)
		if err := rn.BeginBatch1(); err != nil {
			t.Fatalf("cluster %d: %v", cs.ID, err)
		}
		if _, err := rn.RunDense1(0); err != nil {
			t.Fatalf("cluster %d: %v", cs.ID, err)
		}
	}
}

// TestShardedDeterministic pins routing determinism: the same Add/Remove
// sequence produces the same clustering and byte-identical per-cluster
// merged programs in two independent instances.
func TestShardedDeterministic(t *testing.T) {
	build := func() (*ShardedRegistry, *Snapshot) {
		s, err := New(Options{MaxClusterSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		var ids []QueryID
		for i := 0; i < 5; i++ {
			ids = append(ids, mustAdd(t, s, tempQuery(i)))
			ids = append(ids, mustAdd(t, s, volQuery(i)))
		}
		if err := s.Remove(ids[3]); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return s, snap
	}
	s1, a := build()
	defer s1.Close()
	s2, b := build()
	defer s2.Close()
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		ga, gb := a.Clusters[i], b.Clusters[i]
		if ga.ID != gb.ID {
			t.Fatalf("cluster order differs at %d: id %d vs %d", i, ga.ID, gb.ID)
		}
		fa, fb := lang.Format(ga.Snap.Merged), lang.Format(gb.Snap.Merged)
		if fa != fb {
			t.Fatalf("cluster %d merged programs differ:\n%s\nvs\n%s", ga.ID, fa, fb)
		}
	}
	ia, ib := a.LiveIDs(), b.LiveIDs()
	if len(ia) != len(ib) {
		t.Fatalf("live sets differ: %v vs %v", ia, ib)
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("live id order differs at %d: %d vs %d", i, ia[i], ib[i])
		}
	}
}

// TestShardedBackgroundRebuild pins the per-cluster rebuild workers: with
// a debounce configured, churn settles into a clean published snapshot
// without any explicit Rebuild/Flush call.
func TestShardedBackgroundRebuild(t *testing.T) {
	s, err := New(Options{Debounce: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, s, tempQuery(i))
		mustAdd(t, s, volQuery(i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.Clean() && len(snap.Clusters) == 2 {
			for _, cs := range snap.Clusters {
				if cs.Snap.Merged == nil {
					t.Fatalf("cluster %d settled without a merged program", cs.ID)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background rebuilds never settled: gen %d, %d clusters, clean=%v",
				snap.Gen, len(snap.Clusters), snap.Clean())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShardedDebounceCoalescesBursts asserts a cluster's worker coalesces a
// storm of subscriptions: many adds inside the debounce window end in a
// clean snapshot after far fewer rebuilds than changes.
func TestShardedDebounceCoalescesBursts(t *testing.T) {
	pool := queries.MustGen("flight", "Q1", 40, 9)
	s, err := New(Options{Debounce: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const burst = 20
	for i := 0; i < burst; i++ {
		mustAdd(t, s, pool[i])
	}
	builds := func() (n uint64) {
		for _, cs := range s.ClusterStats() {
			n += cs.Registry.Builds
		}
		return n
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if snap := s.Snapshot(); snap.Clean() && len(snap.LiveIDs()) == burst {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never produced a clean snapshot: %+v after %d builds", s.Stats(), builds())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := builds(); n >= burst/2 {
		t.Fatalf("burst of %d adds triggered %d rebuilds; debouncing failed", burst, n)
	}
}

// TestShardedCloseNoWorkerLeak pins worker lifecycle: every per-cluster
// rebuild goroutine must be joined by Close, including workers of clusters
// created by splits and workers mid-debounce, across repeated instances.
func TestShardedCloseNoWorkerLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		s, err := New(Options{
			Debounce:       time.Millisecond,
			MaxClusterSize: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			mustAdd(t, s, tempQuery(i))
			mustAdd(t, s, volQuery(i))
		}
		if got := s.Stats().Clusters; got < 3 {
			t.Fatalf("expected splits to multiply clusters, got %d", got)
		}
		// Close mid-debounce: workers must exit promptly either way.
		s.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("cluster rebuild workers leaked: %d at baseline, %d after Close",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
