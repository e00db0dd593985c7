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
	case "city":
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
	}
	return 0, fmt.Errorf("aggToy: no function %q", name)
}

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
  acc mn = 0;
  fold {
    if (temp(r) > 18) { mn := mn + 1; }
  }
  emit { notify 0 (mn >= 2); }
}
`, window))
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

// nonHomAggs has an accumulator-coupled fold (prefix sum of sums) that must
// fall back to the unsplit window path.
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
	for _, w := range []int{1, 2, 3, 4} {
		for _, bs := range []int{1, 3, 7, 64} {
			for _, noHom := range []bool{false, true} {
				grid = append(grid, Options{Workers: w, BatchSize: bs, NoHomAgg: noHom})
			}
		}
	}
	return grid
}

func checkAggParity(t *testing.T, data RecordLibrary, aggs []*lang.AggProgram) {
	t.Helper()
	ref, err := AggregateMany(data, aggs, Options{})
	if err != nil {
		t.Fatalf("AggregateMany: %v", err)
	}
	for _, o := range aggGrid() {
		got, err := AggregateConsolidated(data, aggs, consolidate.Options{}, o)
		if err != nil {
			t.Fatalf("AggregateConsolidated %+v: %v", o, err)
		}
		if !SameAggResults(ref, &got.AggResult) {
			t.Fatalf("outputs differ from serial replay at %+v", o)
		}
	}
}

// TestAggConsolidatedParity is the core acceptance check: merged windowed
// outputs byte-identical to the per-aggregation serial replay at every
// Workers × BatchSize × NoHomAgg configuration, for count-partitioned and
// key-partitioned windows. The name matches the race-matrix leg.
func TestAggConsolidatedParity(t *testing.T) {
	d := &aggToy{n: 137} // not a multiple of window or batch: trailing partials
	checkAggParity(t, d, weatherAggs(t, "window 4"))
	checkAggParity(t, d, weatherAggs(t, "window 4 by city"))
}

// TestAggConsolidatedParityNonHom pins the unsplit fallback: the coupled
// fold cannot split, and outputs still agree on every grid point.
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

// TestAggPartialCombineZeroAlloc pins the split path's steady state at
// zero allocations per record: fold step into a partial segment plus the
// combine of a closed window allocate nothing.
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
