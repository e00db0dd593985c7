package queries

import (
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
)

func TestGenAggParsesAndMerges(t *testing.T) {
	for _, domain := range []string{"weather", "stock"} {
		for _, keyed := range []bool{false, true} {
			aggs, err := GenAgg(domain, 6, 12, keyed, 42)
			if err != nil {
				t.Fatalf("%s keyed=%v: %v", domain, keyed, err)
			}
			for _, a := range aggs {
				if err := lang.CheckAgg(a); err != nil {
					t.Fatalf("%s: %v", a.Name, err)
				}
				if a.Window.Size != 12 {
					t.Fatalf("%s window %+v", a.Name, a.Window)
				}
			}
			groups, err := consolidate.MergeAggs(aggs, consolidate.Options{})
			if err != nil {
				t.Fatalf("%s keyed=%v merge: %v", domain, keyed, err)
			}
			if len(groups) != 1 {
				t.Fatalf("%s keyed=%v: %d groups, want 1 shared traversal", domain, keyed, len(groups))
			}
			if !groups[0].Homomorphic {
				t.Fatalf("%s keyed=%v: generated shapes must be homomorphic", domain, keyed)
			}
		}
	}
}

func TestGenAggDeterministic(t *testing.T) {
	a := MustGenAgg("weather", 4, 6, true, 9)
	b := MustGenAgg("weather", 4, 6, true, 9)
	for i := range a {
		if lang.FormatAgg(a[i]) != lang.FormatAgg(b[i]) {
			t.Fatalf("aggregation %d differs between same-seed generations", i)
		}
	}
}

func TestGenAggRejectsUnknownDomain(t *testing.T) {
	if _, err := GenAgg("news", 2, 4, false, 1); err == nil {
		t.Fatal("news has no observation stream")
	}
	if _, err := AggKeyFunc("flight"); err == nil {
		t.Fatal("flight has no observation stream")
	}
}

// TestAggWorkloadEndToEnd runs the generated families over the real
// streaming datasets and checks merged outputs equal the serial replay —
// the workload-level version of the engine's parity test.
func TestAggWorkloadEndToEnd(t *testing.T) {
	cases := []struct {
		domain string
		lib    engine.RecordLibrary
	}{
		{"weather", data.GenWeatherStream(data.WeatherStreamConfig{Cities: 8, Hours: 10, Seed: 2})},
		{"stock", data.GenStockTicks(data.StockTicksConfig{Tickers: 6, Ticks: 15, Seed: 2})},
	}
	for _, c := range cases {
		for _, keyed := range []bool{false, true} {
			aggs := MustGenAgg(c.domain, 5, 7, keyed, 11)
			ref, err := engine.AggregateMany(c.lib, aggs, engine.Options{})
			if err != nil {
				t.Fatalf("%s keyed=%v: %v", c.domain, keyed, err)
			}
			for _, o := range []engine.Options{
				{Workers: 3, BatchSize: 5},
				{Workers: 4, BatchSize: 16},
			} {
				got, err := engine.AggregateConsolidated(c.lib, aggs, consolidate.Options{}, o)
				if err != nil {
					t.Fatalf("%s keyed=%v %+v: %v", c.domain, keyed, o, err)
				}
				if !engine.SameAggResults(ref, &got.AggResult) {
					t.Fatalf("%s keyed=%v: outputs differ at %+v", c.domain, keyed, o)
				}
			}
		}
	}
}
