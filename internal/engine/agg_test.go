package engine

import (
	"fmt"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
)

// aggToy is the windowed-aggregation test dataset: per-record temperature,
// rainfall, and city derived from the index, with the expensive accessors
// priced like a full decode and the key accessor priced lite.
type aggToy struct {
	n   int
	cur int64
}

func (d *aggToy) NumRecords() int { return d.n }
func (d *aggToy) SetRecord(i int) { d.cur = int64(i) }
func (d *aggToy) Clone() RecordLibrary {
	return &aggToy{n: d.n}
}
func (d *aggToy) FuncCost(name string) (int64, bool) {
	switch name {
	case "temp", "rain":
		return 25, true
	case "city", "zone":
		return 4, true
	}
	return 0, false
}
func (d *aggToy) Call(name string, args []int64) (int64, error) {
	switch name {
	case "temp":
		return (d.cur*7)%41 - 5, nil
	case "rain":
		return (d.cur * 3) % 11, nil
	case "city":
		return d.cur % 3, nil
	case "zone": // skewed: four records in five are zone 0
		return d.cur % 5 / 4, nil
	}
	return 0, fmt.Errorf("aggToy: no function %q", name)
}

// weatherAggs are three homomorphic aggregations over one window spec.
// mild's count starts at 3, not at the sum identity, so a cut piece that
// folded from the inits would count it twice.
func weatherAggs(t *testing.T, window string) []*lang.AggProgram {
	t.Helper()
	aggs, err := lang.ParseAggs(fmt.Sprintf(`
agg hot(r) %[1]s {
  acc hi = -9999;
  fold {
    t := temp(r);
    if (hi < t) { hi := t; }
  }
  emit { notify 0 (hi > 20); }
}
agg swing(r) %[1]s {
  acc lo = 9999;
  acc sum = 0;
  fold {
    t := temp(r);
    if (t < lo) { lo := t; }
    sum := sum + t;
  }
  emit {
    notify 0 (lo < 0);
    notify 1 (sum > 40);
  }
}
agg mild(r) %[1]s {
  acc mn = 3;
  fold {
    if (temp(r) > 18) { mn := mn + 1; }
  }
  emit { notify 0 (mn >= 5); }
}
`, window))
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

// nonHomAggs has an accumulator-coupled fold (prefix sum of sums) whose
// windows are never cut.
func nonHomAggs(t *testing.T) []*lang.AggProgram {
	t.Helper()
	aggs, err := lang.ParseAggs(`
agg tricky(r) window 5 {
  acc a = 0;
  acc b = 0;
  fold {
    t := temp(r);
    a := a + t;
    b := b + a;
  }
  emit { notify 0 (b > a); }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

func aggGrid() []Options {
	var grid []Options
	for _, bs := range []int{1, 3, 7, 64} {
		for _, w := range []int{1, 2, 3, 4} {
			grid = append(grid, Options{Workers: w, BatchSize: bs})
		}
	}
	return grid
}

// checkAggParity holds AggregateConsolidated to the serial replay's outputs
// at every grid point, and to one FoldCost, UDFCost and Batches across the
// Workers of each BatchSize: the claims and cuts depend on the plan and
// BatchSize alone.
func checkAggParity(t *testing.T, data RecordLibrary, aggs []*lang.AggProgram) {
	t.Helper()
	ref, err := AggregateMany(data, aggs, Options{})
	if err != nil {
		t.Fatalf("AggregateMany: %v", err)
	}
	var first AggMetrics // the grid's Workers: 1 point at this BatchSize
	for _, o := range aggGrid() {
		got, err := AggregateConsolidated(data, aggs, consolidate.Options{}, o)
		if err != nil {
			t.Fatalf("AggregateConsolidated %+v: %v", o, err)
		}
		if !SameAggResults(ref, &got.AggResult) {
			t.Fatalf("outputs differ from serial replay at %+v", o)
		}
		m := got.AggMetrics
		if o.Workers == 1 {
			first = m
		} else if m.FoldCost != first.FoldCost || m.UDFCost != first.UDFCost || m.Batches != first.Batches {
			t.Fatalf("at %+v: fold cost %d, UDF cost %d, %d batches; Workers: 1 had %d, %d, %d",
				o, m.FoldCost, m.UDFCost, m.Batches, first.FoldCost, first.UDFCost, first.Batches)
		}
	}
}

// TestAggConsolidatedParity is the core acceptance check: merged windowed
// outputs byte-identical to the per-aggregation serial replay at every
// Workers × BatchSize configuration, for count-partitioned and
// key-partitioned windows, with costs equal across Workers. The long
// windows (over n/3 records, and one spanning the whole stream) are the
// ones the grid's batch sizes cut. The name matches the race-matrix leg.
func TestAggConsolidatedParity(t *testing.T) {
	d := &aggToy{n: 137} // not a multiple of window or batch: trailing partials
	for _, window := range []string{"window 4", "window 4 by city",
		"window 50", "window 200", "window 60 by zone", "window 200 by zone"} {
		checkAggParity(t, d, weatherAggs(t, window))
	}
}

// TestAggClaimBounds pins the fold claims: runs of whole windows of at
// least BatchSize records, with a window longer than BatchSize cut every
// BatchSize records only when the group is homomorphic. Short windows are
// never cut, a long uncut window lies in one claim, and an empty stream
// has no claims. The counts are worked out by hand at BatchSize 7 over
// n = 137 (zone 0 holds 110 records).
func TestAggClaimBounds(t *testing.T) {
	const bs = 7
	city := func(i int) int64 { return int64(i % 3) }
	zone := func(i int) int64 { return int64(i % 5 / 4) }
	cases := []struct {
		name          string
		n, size       int
		key           func(int) int64 // nil: count windows
		cut           bool
		claims, parts int
	}{
		// 35 windows, two to a claim.
		{"short count", 137, 4, nil, true, 18, 0},
		{"short keyed", 137, 4, city, true, 18, 0},
		// Windows of 50, 50, 37 records, each cut every 7: 7 + 7 + 5 cuts.
		{"long count", 137, 50, nil, true, 20, 19},
		{"long count uncut", 137, 50, nil, false, 3, 0},
		{"stream-long count", 137, 200, nil, true, 20, 19},
		{"stream-long count uncut", 137, 200, nil, false, 1, 0},
		// Zone 0's 60, zone 1's 27, zone 0's 50: 8 + 3 + 7 cuts.
		{"long keyed", 137, 60, zone, true, 19, 18},
		{"long keyed uncut", 137, 60, zone, false, 3, 0},
		{"empty", 0, 50, nil, true, 0, 0},
		{"empty keyed", 0, 4, city, true, 0, 0},
	}
	for _, c := range cases {
		var keys []int64
		if c.key != nil {
			keys = make([]int64, c.n)
			for i := range keys {
				keys[i] = c.key(i)
			}
		}
		p := buildAggPlan(c.n, c.size, keys)
		claims, parts := p.claims(c.n, bs, c.cut)
		if len(claims) != c.claims || int(parts) != c.parts {
			t.Errorf("%s: %d claims, %d cut pieces; want %d, %d", c.name, len(claims), parts, c.claims, c.parts)
			continue
		}
		var nextPart int32
		for k, cl := range claims {
			win, hi := p.wins[cl.win], int32(c.n)
			if k+1 < len(claims) {
				hi = claims[k+1].lo
			}
			switch into := cl.lo - win.off; {
			case k+1 < len(claims) && hi-cl.lo < bs:
				t.Errorf("%s: claim %d holds %d records, fewer than a batch", c.name, k, hi-cl.lo)
			case into == 0 && cl.part != -1, into != 0 && cl.part != nextPart:
				t.Errorf("%s: claim %d opens %d records into its window with part %d", c.name, k, into, cl.part)
			case into != 0 && (!c.cut || into%bs != 0 || into >= win.cnt):
				t.Errorf("%s: claim %d cuts a window of %d records %d records in", c.name, k, win.cnt, into)
			}
			if cl.part >= 0 {
				nextPart++
			}
		}
	}
	// The pass takes its cuts from the group's homomorphism and BatchSize.
	res, err := AggregateConsolidated(&aggToy{n: 137}, weatherAggs(t, "window 50"), consolidate.Options{}, Options{Workers: 3, BatchSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Groups[0].Homomorphic || res.Batches != 20 {
		t.Errorf("window 50: homomorphic %v, %d claims; want true, 20", res.Groups[0].Homomorphic, res.Batches)
	}
}

// TestAggPlanAllocs pins the plan to a fixed number of allocations whatever
// the stream length: flat slices sized once, no object per window. The keyed
// stream interleaves 97 keys, so the key map is the same size at both lengths.
func TestAggPlanAllocs(t *testing.T) {
	allocs := func(n int, keyed bool) float64 {
		var keys []int64
		if keyed {
			keys = make([]int64, n)
			for i := range keys {
				keys[i] = int64(i*31) % 97
			}
		}
		return testing.AllocsPerRun(10, func() { buildAggPlan(n, 12, keys) })
	}
	for _, keyed := range []bool{false, true} {
		small, large := allocs(97*12*3+50, keyed), allocs(97*12*24+50, keyed)
		if small != large {
			t.Errorf("keyed=%v: building the plan allocates %.0f objects at 3,542 records and %.0f at 27,986", keyed, small, large)
		}
	}
}

// TestAggConsolidatedParityNonHom pins the uncut fallback: the coupled
// fold's windows, longer than BatchSize 1 and 3, are never cut, and
// outputs still agree on every grid point.
func TestAggConsolidatedParityNonHom(t *testing.T) {
	d := &aggToy{n: 61}
	aggs := nonHomAggs(t)
	res, err := AggregateConsolidated(d, aggs, consolidate.Options{}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Homomorphic {
		t.Fatal("coupled fold must not be homomorphic")
	}
	checkAggParity(t, d, aggs)
}

// TestAggWindowEdges covers the boundary shapes: an empty stream (no
// windows at all), window size 1 (every record closes a window), a window
// larger than the stream (one trailing partial), and a stream that is an
// exact multiple of the window (no partials).
func TestAggWindowEdges(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		window  string
		windows int
	}{
		{"empty stream", 0, "window 4", 0},
		{"size one", 9, "window 1", 9},
		{"window larger than stream", 3, "window 10", 1},
		{"exact multiple", 12, "window 4", 3},
		{"keyed empty", 0, "window 4 by city", 0},
		{"keyed size one", 9, "window 1 by city", 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &aggToy{n: c.n}
			aggs := weatherAggs(t, c.window)
			ref, err := AggregateMany(d, aggs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Outputs[0].Windows != c.windows {
				t.Fatalf("reference emitted %d windows, want %d", ref.Outputs[0].Windows, c.windows)
			}
			checkAggParity(t, d, aggs)
		})
	}
}

// TestAggKeyedWindowOrder pins the emit order contract: closed windows in
// close order, trailing partials in open order, with per-window keys.
func TestAggKeyedWindowOrder(t *testing.T) {
	d := &aggToy{n: 10} // cities 0,1,2,0,1,2,... window 3: city 0 closes at rec 6, city 1 at 7, city 2 at 8; rec 9 opens city 0's partial
	aggs := weatherAggs(t, "window 3 by city")
	ref, err := AggregateMany(d, aggs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := ref.Outputs[0]
	wantKeys := []int64{0, 1, 2, 0}
	if o.Windows != len(wantKeys) {
		t.Fatalf("windows = %d, want %d", o.Windows, len(wantKeys))
	}
	for i, k := range wantKeys {
		if o.Keys[i] != k {
			t.Fatalf("window %d key = %d, want %d (keys %v)", i, o.Keys[i], k, o.Keys)
		}
	}
}

// TestAggSharedTraversalCost pins the consolidation win the benchmark
// gates: three aggregations sharing the expensive accessor cost ≥2× less
// merged than as separate passes.
func TestAggSharedTraversalCost(t *testing.T) {
	d := &aggToy{n: 400}
	aggs := weatherAggs(t, "window 4")
	ref, err := AggregateMany(d, aggs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AggregateConsolidated(d, aggs, consolidate.Options{}, Options{Workers: 1, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ref.UDFCost < 2*got.UDFCost {
		t.Fatalf("cost reduction %.2fx < 2x (unmerged %d, merged %d)",
			float64(ref.UDFCost)/float64(got.UDFCost), ref.UDFCost, got.UDFCost)
	}
}

// TestAggPartialCombineZeroAlloc pins a cut window's steady state at zero
// allocations per record: fold step into a partial row plus the combine of
// a piece allocate nothing.
func TestAggPartialCombineZeroAlloc(t *testing.T) {
	d := &aggToy{n: 64}
	aggs := weatherAggs(t, "window 8")
	groups, err := consolidate.MergeAggs(aggs, consolidate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0]
	if !g.Homomorphic {
		t.Fatal("weather group must be homomorphic")
	}
	r, acc, err := newGroupRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	f := r.folder(d, Options{})
	part := make([]int64, len(acc))
	for i, op := range g.Hom {
		part[i] = op.Identity()
	}
	// Warm up the runner's lazy growth before pinning.
	if err := f.step(0, part); err != nil {
		t.Fatal(err)
	}
	rec := 1
	allocs := testing.AllocsPerRun(500, func() {
		if err := f.step(rec%d.n, part); err != nil {
			panic(err)
		}
		rec++
		if rec%8 == 0 { // window close: combine the partial and reset it
			for i, op := range g.Hom {
				acc[i] = op.Combine(acc[i], part[i])
				part[i] = op.Identity()
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("partial/combine steady state allocates %.1f per record, want 0", allocs)
	}
}

// TestAggMetricsShape sanity-checks the pass bookkeeping.
func TestAggMetricsShape(t *testing.T) {
	d := &aggToy{n: 40}
	aggs := weatherAggs(t, "window 4 by city")
	res, err := AggregateConsolidated(d, aggs, consolidate.Options{}, Options{Workers: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 40 || res.Aggs != 3 || res.AggMetrics.Groups != 1 {
		t.Fatalf("metrics %+v", res.AggMetrics)
	}
	if res.KeyCost != 40*4 {
		t.Fatalf("KeyCost = %d, want %d", res.KeyCost, 40*4)
	}
	if res.UDFCost != res.FoldCost+res.EmitCost+res.KeyCost {
		t.Fatalf("UDFCost %d != fold %d + emit %d + key %d", res.UDFCost, res.FoldCost, res.EmitCost, res.KeyCost)
	}
	if res.Windows == 0 || res.Batches == 0 {
		t.Fatalf("metrics %+v", res.AggMetrics)
	}
}
