package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/smt"
)

// liteToy is a lite-capable RecordLibrary for exercising every batched
// stage in-package: key(r) answers from a column after a lite select
// (cost 4, within the lite bound), val(r) needs the full "decode". The
// spans counter is shared across clones so tests can assert the batched
// lite-decode hook actually ran.
type liteToy struct {
	keys, vals []int64
	spans      *atomic.Int64

	curIdx int
	cur    int64
	ok     bool
	inSpan bool
}

func newLiteToy(n int) *liteToy {
	d := &liteToy{curIdx: -1, spans: new(atomic.Int64)}
	for i := 0; i < n; i++ {
		d.keys = append(d.keys, int64(i*13%97))
		d.vals = append(d.vals, int64(i*7%50))
	}
	return d
}

func (d *liteToy) NumRecords() int { return len(d.keys) }
func (d *liteToy) SetRecord(i int) {
	d.curIdx = i
	d.cur = d.vals[i]
	d.ok = true
	d.inSpan = false
}
func (d *liteToy) SetRecordLite(i int) {
	d.curIdx = i
	if !d.inSpan {
		d.ok = false
	}
}
func (d *liteToy) SetRecordLiteSpan(lo, hi int) {
	d.curIdx = -1
	d.ok = false
	d.inSpan = true
	d.spans.Add(1)
}
func (d *liteToy) LiteCostBound() int64 { return 4 }
func (d *liteToy) Clone() RecordLibrary {
	return &liteToy{keys: d.keys, vals: d.vals, spans: d.spans, curIdx: -1}
}
func (d *liteToy) FuncCost(name string) (int64, bool) {
	switch name {
	case "key":
		return 4, true
	case "val":
		return 20, true
	}
	return 0, false
}
func (d *liteToy) key(args []int64) (int64, error) {
	if d.curIdx < 0 {
		return 0, fmt.Errorf("liteToy: no record selected")
	}
	return d.keys[d.curIdx], nil
}
func (d *liteToy) val(args []int64) (int64, error) {
	if !d.ok {
		return 0, fmt.Errorf("liteToy: record not decoded")
	}
	return d.cur, nil
}
func (d *liteToy) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "key":
		return d.key, true
	case "val":
		return d.val, true
	}
	return nil, false
}
func (d *liteToy) Call(name string, args []int64) (int64, error) {
	fn, ok := d.Resolve(name)
	if !ok {
		return 0, fmt.Errorf("liteToy: no function %q", name)
	}
	return fn(args)
}

// gatedToyUDFs gates the expensive val scan behind the cheap key column —
// the shape guard synthesis turns into a lite admission pre-filter.
func gatedToyUDFs(n int, keyThr int64) []*lang.Program {
	var out []*lang.Program
	for i := 0; i < n; i++ {
		out = append(out, lang.MustParse(fmt.Sprintf(
			"func q%d(r) { f := key(r); if (f >= %d && val(r) > %d) { notify 1 true; } else { notify 1 false; } }",
			i, keyThr, 10+i*9)))
	}
	return out
}

// sameMetrics asserts the batched run's verdicts, its Metrics.Invariant
// totals and its per-UDF counts are byte-identical to the reference run.
func sameMetrics(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if !SameResults(ref, got) {
		t.Fatalf("%s: verdicts diverge from the record-at-a-time reference", label)
	}
	if r, g := ref.Invariant(), got.Invariant(); r != g {
		t.Fatalf("%s: totals %+v, reference %+v", label, g, r)
	}
	for q := range ref.LatencySum {
		if ref.LatencySum[q] != got.LatencySum[q] {
			t.Fatalf("%s: latency stamp sum of UDF %d is %d, reference %d",
				label, q, got.LatencySum[q], ref.LatencySum[q])
		}
	}
	for q := range ref.Selected {
		if ref.Selected[q] != got.Selected[q] {
			t.Fatalf("%s: selected[%d] %d, reference %d", label, q, got.Selected[q], ref.Selected[q])
		}
	}
}

// TestBatchDispatchParity is the engine-level determinism criterion: every
// Workers/BatchSize combination must reproduce the record-at-a-time
// reference byte-identically — verdicts, costs, guard shares,
// per-notification latency stamps — on both operators, with the admission
// guard active.
func TestBatchDispatchParity(t *testing.T) {
	const n = 271 // deliberately ragged against every batch size below
	d := newLiteToy(n)
	udfs := gatedToyUDFs(3, 60)
	ccache, pcache := smt.NewCache(0), smt.NewCache(0)
	copts := consolidate.Options{Cache: ccache}

	manyRef, err := WhereMany(d, udfs, Options{Workers: 1, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	consRef, err := WhereConsolidated(d, udfs, copts, Options{Workers: 1, BatchSize: 1, PrefilterCache: pcache})
	if err != nil {
		t.Fatal(err)
	}
	if consRef.Guard == nil || consRef.Guard.Trivial {
		t.Fatal("expected a non-trivial guard; the parity matrix would skip the guard stage")
	}
	if consRef.Rejected == 0 || consRef.Admitted == 0 {
		t.Fatalf("degenerate admission split %d/%d", consRef.Admitted, consRef.Rejected)
	}

	spansBefore := d.spans.Load()
	for _, bs := range []int{1, 7, 64, n, 512} {
		for _, w := range []int{1, 2, 4} {
			label := fmt.Sprintf("workers=%d/batch=%d", w, bs)
			opts := Options{Workers: w, BatchSize: bs, PrefilterCache: pcache}
			many, err := WhereMany(d, udfs, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, label+"/many", manyRef, many)
			cons, err := WhereConsolidated(d, udfs, copts, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, label+"/cons", &consRef.Result, &cons.Result)
			wantBatches := (n + bs - 1) / bs
			if bs > n {
				wantBatches = 1
			}
			if cons.Batches != wantBatches {
				t.Fatalf("%s: %d batches, want %d", label, cons.Batches, wantBatches)
			}
		}
	}
	if d.spans.Load() == spansBefore {
		t.Fatal("batched lite decode (SetRecordLiteSpan) never ran on the filtered passes")
	}
}

// TestWherePlanResubmit pins the prepared plan as the unit of reuse: WherePlan
// run twice on one Prepared plan reproduces WhereConsolidated over the same
// UDFs byte for byte — verdicts, costs, admission counts, latency stamps —
// and does no consolidation: the shared SMT cache sees no lookup during
// either pass.
func TestWherePlanResubmit(t *testing.T) {
	const n = 271
	d := newLiteToy(n)
	udfs := gatedToyUDFs(3, 60)
	cache := smt.NewCache(0)
	copts := consolidate.Options{Cache: cache, FuncCoster: d}
	opts := Options{Workers: 2, BatchSize: 16, PrefilterCache: cache}
	ref, err := WhereConsolidated(d, udfs, copts, opts)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]consolidate.Leaf, len(udfs))
	for i, p := range udfs {
		leaves[i] = consolidate.Leaf{ID: i, Prog: p}
	}
	guard := &prefilter.Options{Coster: d, Cache: cache, MaxCallCost: d.LiteCostBound()}
	plan, err := consolidate.Prepare(leaves, copts, 2, nil, guard)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Guard == nil || plan.Guard.Trivial {
		t.Fatal("expected a non-trivial guard; the pass would skip the guard stage")
	}
	if lang.Format(plan.Merged) != lang.Format(ref.Merged) {
		t.Fatal("Prepare merged differently from WhereConsolidated")
	}
	lookups := cache.Stats().Lookups
	for run := 0; run < 2; run++ {
		got, err := WherePlan(d, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, fmt.Sprintf("WherePlan run %d", run), &ref.Result, &got.Result)
		if got.Merged != plan.Merged || got.Guard != plan.Guard {
			t.Fatalf("run %d: result does not carry the plan it ran", run)
		}
	}
	if after := cache.Stats().Lookups; after != lookups {
		t.Fatalf("WherePlan consulted the SMT cache %d times; a prepared plan needs no solving", after-lookups)
	}
}

// TestEvaluatorZeroAlloc pins the allocation contract of the one evaluator
// in the three configurations the operators feed it: once a worker is
// swapped to a generation and warm, the guard sweep over the lite-decode
// span, the merged programs and the verbatim pending queries allocate
// nothing per batch — across batch sizes and across independent per-worker
// evaluators. Only publishing verdict maps allocates, outside evalBatch.
func TestEvaluatorZeroAlloc(t *testing.T) {
	const n = 512
	d := newLiteToy(n)
	pf := &prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()}
	pend := `func pend(r) { notify 3 (val(r) > 10); }`
	configs := []struct {
		name     string
		clusters int
		pending  bool
		snaps    func(t *testing.T) []*registry.Snapshot
	}{
		// WhereConsolidated: one fixed cluster, nothing pending.
		{"static", 1, false, func(t *testing.T) []*registry.Snapshot {
			udfs := gatedToyUDFs(2, 60)
			leaves := []consolidate.Leaf{{ID: 0, Prog: udfs[0]}, {ID: 1, Prog: udfs[1]}}
			plan, err := consolidate.Prepare(leaves, consolidate.Options{FuncCoster: d}, 2, nil, pf)
			if err != nil {
				t.Fatal(err)
			}
			return []*registry.Snapshot{{Plan: *plan, Slots: make([]registry.QueryID, len(udfs))}}
		}},
		// One cluster's registry snapshot with a post-rebuild addition (no
		// rebuild follows, so it stays pending) exercising the verbatim
		// pending stage.
		{"registry", 1, true, func(t *testing.T) []*registry.Snapshot {
			reg, err := registry.New(registry.Options{Prefilter: pf})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range gatedToyUDFs(2, 60) {
				if err := reg.Add(registry.QueryID(i+1), p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := reg.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if err := reg.Add(3, lang.MustParse(pend)); err != nil {
				t.Fatal(err)
			}
			return []*registry.Snapshot{reg.Snapshot()}
		}},
		// WhereSharded: several guarded clusters plus a pending query.
		{"sharded", 2, true, func(t *testing.T) []*registry.Snapshot {
			sh, _ := shardedFixture(t, d, 4, 2)
			if _, err := sh.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.Add(lang.MustParse(pend)); err != nil {
				t.Fatal(err)
			}
			var snaps []*registry.Snapshot
			for _, cs := range sh.Snapshot().Clusters {
				snaps = append(snaps, cs.Snap)
			}
			return snaps
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			snaps := cfg.snaps(t)
			if len(snaps) < cfg.clusters {
				t.Fatalf("expected >=%d clusters, got %d", cfg.clusters, len(snaps))
			}
			pending := 0
			for _, s := range snaps {
				pending += len(s.Pending)
			}
			if s := snaps[0]; s.Guard == nil || s.Guard.Trivial {
				t.Fatal("expected a non-trivial guard; the guard+lite-decode stage would be skipped")
			}
			if cfg.pending != (pending > 0) {
				t.Fatalf("%d pending queries in the snapshot, want pending=%v", pending, cfg.pending)
			}
			for _, bsize := range []int{32, 128} {
				// Two independent evaluators model two workers: each owns its
				// library clone, runners, and scratch.
				for wk := 0; wk < 2; wk++ {
					e := newEvaluator(d.Clone(), Options{BatchSize: bsize})
					if err := e.swap(0, snaps); err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < n; lo += bsize {
						if err := e.evalBatch(lo, lo+bsize); err != nil {
							t.Fatal(err)
						}
					}
					if e.m.Rejected == 0 || e.m.Admitted == 0 {
						t.Fatalf("degenerate admission split %d/%d", e.m.Admitted, e.m.Rejected)
					}
					allocs := testing.AllocsPerRun(100, func() {
						if err := e.evalBatch(bsize, 2*bsize); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Fatalf("worker %d batch=%d: evaluation stage allocates %v per batch, want 0", wk, bsize, allocs)
					}
				}
			}
		})
	}
}

// TestBatchedWhereManyZeroAlloc extends the pin to the whereMany batch body.
func TestBatchedWhereManyZeroAlloc(t *testing.T) {
	const n, bsize = 512, 128
	d := toy(n)
	udfs := thresholdUDFs(10, 25, 40)
	compiled := make([]*lang.Compiled, len(udfs))
	ids := make([]int, len(udfs))
	for i, p := range udfs {
		c, err := lang.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		compiled[i] = c
		ids[i] = 1
	}
	w, err := newManyWorker(d.Clone(), udfs, compiled, ids, Options{BatchSize: bsize})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]bool, bsize*len(udfs))
	for lo := 0; lo < n; lo += bsize {
		if err := w.evalBatch(lo, lo+bsize, rows); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.evalBatch(bsize, 2*bsize, rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched whereMany stage allocates %v per batch, want 0", allocs)
	}
}
