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
// count. The w2 cases run count windows at Workers: 2 on either side of the
// split rule's ⌈n / workers⌉ = 4,800 records: 4,320 (below: whole windows
// either way), 5,280 (just above) and 9,600 (one window spanning the stream).
// "rule" is the default, which splits the two long cases; "whole" sets
// NoHomAgg, which folds whole windows. claims/op reads the path: windows when
// whole, batches when split.
func BenchmarkAggregatePlan(b *testing.B) {
	ws := data.GenWeatherStream(data.WeatherStreamConfig{Cities: 200, Hours: 48, Seed: 7})
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
	run := func(name string, aggs []*lang.AggProgram, groups []*consolidate.AggGroup, opts engine.Options) {
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
			b.ReportMetric(float64(ws.NumRecords())*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			b.ReportMetric(float64(claims), "claims/op")
		})
	}
	for _, c := range []struct {
		name  string
		keyed bool
	}{{"keyed", true}, {"count", false}} {
		aggs, groups := merge(12, c.keyed)
		run(c.name, aggs, groups, engine.Options{Workers: 1})
	}
	for _, window := range []int{4320, 5280, 9600} {
		aggs, groups := merge(window, false)
		run(fmt.Sprintf("w2-count-%d/rule", window), aggs, groups, engine.Options{Workers: 2})
		run(fmt.Sprintf("w2-count-%d/whole", window), aggs, groups, engine.Options{Workers: 2, NoHomAgg: true})
	}
}
