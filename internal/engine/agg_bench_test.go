package engine_test

import (
	"fmt"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

// BenchmarkAggregatePlan times one aggregation pass (key extraction, plan,
// fold and emit over the merged groups, without the merge) on a reduced
// agg-windows stream: 20 weather aggregations over 200 stations × 48 hours
// (9,600 records). One op is one pass; run it with -benchmem.
//
// keyed and count use window 12 at Workers: 1, partitioned by station and by
// count. The w1 and w2 cases run long count windows at Workers: 1 and 2:
// 4,320 (w2 only), 5,280 and 9,600 records (one window spanning the stream).
// "cut" is the default BatchSize, 256, which cuts every window into pieces;
// "whole" sets BatchSize to the window, so no window is cut. claims/op reads
// the path, and a leg whose claims show the other path fails.
func BenchmarkAggregatePlan(b *testing.B) {
	ws := data.GenWeatherStream(data.WeatherStreamConfig{Cities: 200, Hours: 48, Seed: 7})
	n := ws.NumRecords()
	merge := func(window int, keyed bool) ([]*lang.AggProgram, []*consolidate.AggGroup) {
		aggs := queries.MustGenAgg("weather", 20, window, keyed, 1)
		copts := consolidate.DefaultOptions()
		copts.FuncCoster = ws
		groups, err := consolidate.MergeAggs(aggs, copts)
		if err != nil {
			b.Fatal(err)
		}
		return aggs, groups
	}
	// run times one leg; pathOK checks its claim count.
	run := func(name string, aggs []*lang.AggProgram, groups []*consolidate.AggGroup, opts engine.Options, pathOK func(claims int) bool) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var claims int
			for i := 0; i < b.N; i++ {
				res, err := engine.AggregatePlan(ws, aggs, groups, opts)
				if err != nil {
					b.Fatal(err)
				}
				claims = res.Batches
			}
			if !pathOK(claims) {
				b.Fatalf("%d claims at %+v: the pass took the other path", claims, opts)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			b.ReportMetric(float64(claims), "claims/op")
		})
	}
	for _, c := range []struct {
		name  string
		keyed bool
	}{{"keyed", true}, {"count", false}} {
		aggs, groups := merge(12, c.keyed)
		run(c.name, aggs, groups, engine.Options{Workers: 1}, func(int) bool { return true })
	}
	for _, c := range []struct{ workers, window int }{
		{2, 4320}, {1, 5280}, {2, 5280}, {1, 9600}, {2, 9600},
	} {
		aggs, groups := merge(c.window, false)
		if !groups[0].Homomorphic {
			b.Fatalf("window %d: the group is not homomorphic, so nothing is cut", c.window)
		}
		windows := (n + c.window - 1) / c.window
		name := fmt.Sprintf("w%d-count-%d/", c.workers, c.window)
		run(name+"cut", aggs, groups, engine.Options{Workers: c.workers},
			func(claims int) bool { return claims > windows })
		run(name+"whole", aggs, groups, engine.Options{Workers: c.workers, BatchSize: c.window},
			func(claims int) bool { return claims == windows })
	}
}
