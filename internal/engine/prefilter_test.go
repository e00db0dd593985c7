// Package engine_test holds the pre-filter integration tests externally:
// the bundled datasets import the engine for its RecordLibrary interface,
// so an in-package test importing them would be an import cycle.
package engine_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// gatedTwitterUDFs builds n UDFs that gate an expensive scan behind the
// cheap followerCount column, the shape the -selectivity workloads use. thr
// picks the follower threshold (higher → more selective).
func gatedTwitterUDFs(n int, thr int64) []*lang.Program {
	udfs := make([]*lang.Program, n)
	for q := 0; q < n; q++ {
		udfs[q] = lang.MustParse(fmt.Sprintf(`
func q%d(r) {
  vf := followerCount(r);
  if (vf >= %d && sentimentScore(r, %d) > %d) { notify %d true; } else { notify %d false; }
}`, q, thr+int64(q), q%data.TwitterSentiments, 3+q%8, q, q))
	}
	return udfs
}

// unguardedPass consolidates udfs with no admission guard and runs the
// plan, so every record runs the full merged program: the unguarded
// reference the guarded passes are held to.
func unguardedPass(tw *data.Twitter, udfs []*lang.Program, copts consolidate.Options, opts engine.Options) (*engine.ConsolidatedResult, error) {
	leaves := make([]consolidate.Leaf, len(udfs))
	for i, p := range udfs {
		leaves[i] = consolidate.Leaf{ID: i, Prog: p}
	}
	copts.FuncCoster = tw
	plan, err := consolidate.Prepare(leaves, copts, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	return engine.WherePlan(tw, plan, opts)
}

func gatedTwitter(t *testing.T) (*data.Twitter, []*lang.Program) {
	t.Helper()
	tw := data.GenTwitter(data.TwitterConfig{Tweets: 600, Seed: 11})
	thr := tw.FollowerQuantile(0.95)
	return tw, gatedTwitterUDFs(3, thr)
}

// TestWhereConsolidatedPrefilterEquivalence checks the tentpole soundness
// property end to end: the filtered consolidated pass returns byte-identical
// verdicts to both the unfiltered pass and the whereMany baseline, while
// actually rejecting records.
func TestWhereConsolidatedPrefilterEquivalence(t *testing.T) {
	tw, udfs := gatedTwitter(t)
	many, err := engine.WhereMany(tw, udfs, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := unguardedPass(tw, udfs, consolidate.Options{}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	filt, err := engine.WhereConsolidated(tw, udfs, consolidate.Options{}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameResults(many, &plain.Result) {
		t.Fatalf("unfiltered consolidated pass diverged from whereMany")
	}
	if !engine.SameResults(&plain.Result, &filt.Result) {
		t.Fatalf("filtered pass diverged from unfiltered pass")
	}
	if filt.Guard == nil || filt.Guard.Trivial {
		t.Fatalf("expected a non-trivial guard for the gated workload")
	}
	if filt.Rejected == 0 {
		t.Fatalf("selective workload rejected no records")
	}
	if filt.Admitted+filt.Rejected != filt.Records {
		t.Fatalf("admitted %d + rejected %d != records %d", filt.Admitted, filt.Rejected, filt.Records)
	}
	if filt.GuardCost == 0 {
		t.Fatalf("filtered pass accumulated no guard cost")
	}
	if plain.Guard != nil {
		t.Fatalf("unguarded pass must not synthesize a guard")
	}
	if plain.Rejected != 0 || plain.Admitted != plain.Records {
		t.Fatalf("unfiltered pass should admit everything")
	}
}

// TestWhereConsolidatedPrefilterWorkers pins the partitioned filtered pass
// to the single-worker verdicts: per-worker guard runners and lite record
// selection must not interact across partitions.
func TestWhereConsolidatedPrefilterWorkers(t *testing.T) {
	tw, udfs := gatedTwitter(t)
	one, err := engine.WhereConsolidated(tw, udfs, consolidate.Options{}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := engine.WhereConsolidated(tw, udfs, consolidate.Options{}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameResults(&one.Result, &four.Result) {
		t.Fatalf("Workers=4 filtered pass diverged from Workers=1")
	}
	if one.Admitted != four.Admitted || one.Rejected != four.Rejected {
		t.Fatalf("admission counts diverged across worker counts: (%d,%d) vs (%d,%d)",
			one.Admitted, one.Rejected, four.Admitted, four.Rejected)
	}
}

// TestWhereConsolidatedTrivialGuardLegacy checks the degradation contract:
// a workload whose notify conditions need only expensive calls synthesizes
// the trivial guard and the pass behaves exactly like the unfiltered one.
func TestWhereConsolidatedTrivialGuardLegacy(t *testing.T) {
	tw := data.GenTwitter(data.TwitterConfig{Tweets: 200, Seed: 7})
	udfs := []*lang.Program{
		lang.MustParse(`func q0(r) { notify 0 (sentimentScore(r, 1) > 5); }`),
		lang.MustParse(`func q1(r) { notify 1 (smileyCount(r) >= 2); }`),
	}
	filt, err := engine.WhereConsolidated(tw, udfs, consolidate.Options{}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if filt.Guard == nil || !filt.Guard.Trivial {
		t.Fatalf("expected trivial guard, got %+v", filt.Guard)
	}
	if filt.Rejected != 0 || filt.GuardCost != 0 {
		t.Fatalf("trivial guard must not filter or cost anything")
	}
	plain, err := unguardedPass(tw, udfs, consolidate.Options{}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameResults(&plain.Result, &filt.Result) {
		t.Fatalf("trivial-guard pass diverged from unfiltered pass")
	}
	if plain.UDFCost != filt.UDFCost {
		t.Fatalf("trivial-guard pass cost %d != unfiltered cost %d", filt.UDFCost, plain.UDFCost)
	}
}

// TestWhereShardedPrefilterChurn streams records through a one-cluster
// registry whose query set changes mid-stream while guards are enabled, and
// checks against a per-generation reference: a stale guard must never
// filter a record the serving snapshot's query set would notify on — in
// particular a freshly added (pending) query must bypass the guard entirely.
func TestWhereShardedPrefilterChurn(t *testing.T) {
	// The churn events land on multiples of 50: batch=1 is the
	// record-at-a-time reference, 25 and 50 hit every event exactly at a
	// batch boundary, and 100 defers the first event past its record index
	// to the next boundary — the batched equivalent of "the swap lands at
	// the following record".
	for _, bsize := range []int{1, 25, 50, 100} {
		t.Run(fmt.Sprintf("batch=%d", bsize), func(t *testing.T) {
			testWhereShardedPrefilterChurn(t, bsize)
		})
	}
}

func testWhereShardedPrefilterChurn(t *testing.T, bsize int) {
	tw := data.GenTwitter(data.TwitterConfig{Tweets: 400, Seed: 19})
	thr := tw.FollowerQuantile(0.9)
	udfs := gatedTwitterUDFs(4, thr)
	// The pending query is deliberately NOT gated on followerCount: the
	// stale guard knows nothing about it and must not suppress it.
	loose := lang.MustParse(`func loose(r) { notify 9 (languageOf(r) == 1); }`)

	reg, err := shard.New(shard.Options{
		Registry:       registry.Options{Prefilter: &prefilter.Options{Coster: tw, MaxCallCost: tw.LiteCostBound()}},
		MaxClusterSize: math.MaxInt,
		MinSimilarity:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []shard.QueryID
	for _, p := range udfs[:3] {
		id, err := reg.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := reg.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if g := reg.Snapshot().Clusters[0].Snap.Guard; g == nil || g.Trivial {
		t.Fatalf("expected non-trivial guard after rebuild")
	}

	// Churn plan keyed by record index: add the loose query early (it stays
	// pending — no rebuild), remove a built query, then rebuild late so the
	// tail streams against a fresh guard. Events whose record index falls
	// inside a batch take effect at the next batch boundary — the batched
	// equivalent of "at the next record boundary".
	var looseID shard.QueryID
	src := &scriptedSource{reg: reg, bsize: bsize, at: map[int]func(){
		50: func() {
			id, err := reg.Add(loose)
			if err != nil {
				t.Fatal(err)
			}
			looseID = id
		},
		150: func() {
			if err := reg.Remove(ids[2]); err != nil {
				t.Fatal(err)
			}
		},
		250: func() {
			if _, err := reg.Rebuild(); err != nil {
				t.Fatal(err)
			}
		},
	}}
	// One worker: the script is keyed on the serial order of batch loads.
	res, err := engine.WhereSharded(tw, src, engine.Options{Workers: 1, BatchSize: bsize})
	if err != nil {
		t.Fatal(err)
	}
	if bsize <= 50 {
		if res.Swaps < 3 {
			t.Fatalf("expected at least 3 generation swaps, got %d", res.Swaps)
		}
	} else if res.Swaps == 0 {
		t.Fatalf("expected generation swaps mid-stream, got none")
	}
	if res.Rejected == 0 {
		t.Fatalf("guarded registry pass rejected nothing")
	}
	assertBatchConstantGens(t, res.Gens, bsize)

	// Reference: evaluate every query verbatim on every record and compare
	// against the verdict set each record's generation served.
	verdictOf := verbatimVerdicts(t, tw, append(append([]*lang.Program{}, udfs[:3]...), loose))
	progOf := map[shard.QueryID]int{ids[0]: 0, ids[1]: 1, ids[2]: 2, looseID: 3}
	for i, vd := range res.Verdicts {
		for id, got := range vd {
			want := verdictOf[progOf[id]][i]
			if got != want {
				t.Fatalf("record %d query %d: got %v want %v (gen %d)", i, id, got, want, res.Gens[i])
			}
		}
	}
}

// assertBatchConstantGens pins the batch-boundary invariant: a generation
// swap must never split a batch, so Gens is constant on every [lo, lo+bsize)
// span.
func assertBatchConstantGens(t *testing.T, gens []uint64, bsize int) {
	t.Helper()
	for lo := 0; lo < len(gens); lo += bsize {
		hi := lo + bsize
		if hi > len(gens) {
			hi = len(gens)
		}
		for i := lo + 1; i < hi; i++ {
			if gens[i] != gens[lo] {
				t.Fatalf("generation swap split batch [%d,%d): gen %d at %d vs gen %d at %d",
					lo, hi, gens[lo], lo, gens[i], i)
			}
		}
	}
}

// scriptedSource triggers registry mutations at fixed record indices; the
// Snapshot call at each batch boundary is the hook WhereSharded gives us,
// and the upcoming batch's first record is the index it serves.
type scriptedSource struct {
	reg   *shard.ShardedRegistry
	i     int
	bsize int
	at    map[int]func()
}

func (s *scriptedSource) Snapshot() *shard.Snapshot {
	lo := s.i * s.bsize
	// Fire every event scheduled at or before the upcoming batch's first
	// record, in record order (batch sizes that skip over an event's exact
	// index pick it up at the next boundary).
	var due []int
	for rec := range s.at {
		if rec <= lo {
			due = append(due, rec)
		}
	}
	sort.Ints(due)
	for _, rec := range due {
		s.at[rec]()
		delete(s.at, rec)
	}
	s.i++
	return s.reg.Snapshot()
}

func verbatimVerdicts(t *testing.T, tw *data.Twitter, progs []*lang.Program) [][]bool {
	t.Helper()
	out := make([][]bool, len(progs))
	for q, p := range progs {
		c, err := lang.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		var id int
		for nid := range lang.NotifyIDs(p.Body) {
			id = nid
		}
		rn := lang.NewRunner(c, tw)
		out[q] = make([]bool, tw.NumRecords())
		args := []int64{0}
		for i := 0; i < tw.NumRecords(); i++ {
			tw.SetRecord(i)
			args[0] = int64(i)
			if _, err := rn.RunDense(args); err != nil {
				t.Fatal(err)
			}
			v, ok := rn.Note(id)
			if !ok {
				t.Fatalf("query %d missing note on record %d", q, i)
			}
			out[q][i] = v
		}
	}
	return out
}
