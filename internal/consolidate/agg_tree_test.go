package consolidate_test

import (
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

// TestMergeAggsTreeIsDeterministic: a group's folds merge on the one
// divide-and-conquer builder, so the in-line build (a caller-supplied
// solver) and the parallel one must produce the same group — fold, emit,
// combine operators, rule counts and query count — on every generated
// family. Every family stays homomorphic.
func TestMergeAggsTreeIsDeterministic(t *testing.T) {
	for _, domain := range []string{"weather", "stock"} {
		for _, keyed := range []bool{false, true} {
			aggs := queries.MustGenAgg(domain, 20, 12, keyed, 1)
			serial := consolidate.DefaultOptions()
			serial.Solver = smt.New()
			want, err := consolidate.MergeAggs(aggs, serial)
			if err != nil {
				t.Fatalf("%s keyed=%v serial: %v", domain, keyed, err)
			}
			got, err := consolidate.MergeAggs(aggs, consolidate.DefaultOptions())
			if err != nil {
				t.Fatalf("%s keyed=%v parallel: %v", domain, keyed, err)
			}
			if len(want) != 1 || len(got) != 1 {
				t.Fatalf("%s keyed=%v: %d and %d groups, want one shared traversal", domain, keyed, len(want), len(got))
			}
			w, g := want[0], got[0]
			if !g.Homomorphic || !w.Homomorphic {
				t.Fatalf("%s keyed=%v: generated shapes must stay homomorphic", domain, keyed)
			}
			if lang.Format(w.Fold) != lang.Format(g.Fold) || lang.Format(w.Emit) != lang.Format(g.Emit) {
				t.Fatalf("%s keyed=%v: parallel group differs from the in-line one:\n%s\nvs\n%s",
					domain, keyed, lang.Format(g.Fold), lang.Format(w.Fold))
			}
			ws, gs := w.Stats, g.Stats
			ws.Duration, gs.Duration = 0, 0
			ws.Context, gs.Context = smt.ContextStats{}, smt.ContextStats{}
			if ws != gs {
				t.Fatalf("%s keyed=%v: stats %+v, in line %+v", domain, keyed, gs, ws)
			}
			for i := range w.Hom {
				if w.Hom[i] != g.Hom[i] {
					t.Fatalf("%s keyed=%v: Hom[%d] = %v, in line %v", domain, keyed, i, g.Hom[i], w.Hom[i])
				}
			}
		}
	}
}

// TestAggregatePlanReusesGroups: the groups MergeAggs returns are a plan.
// AggregatePlan reruns them at any Workers × BatchSize without merging
// again, and every run matches the per-aggregation replay.
func TestAggregatePlanReusesGroups(t *testing.T) {
	ws := data.GenWeatherStream(data.WeatherStreamConfig{Cities: 8, Hours: 30, Seed: 3})
	aggs := queries.MustGenAgg("weather", 9, 5, true, 4)
	ref, err := engine.AggregateMany(ws, aggs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ws
	groups, err := consolidate.MergeAggs(aggs, copts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []engine.Options{{Workers: 1}, {Workers: 3, BatchSize: 7}, {Workers: 2, BatchSize: 4}} {
		got, err := engine.AggregatePlan(ws, aggs, groups, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if !engine.SameAggResults(ref, &got.AggResult) {
			t.Fatalf("%+v: plan outputs differ from the per-aggregation replay", o)
		}
		if got.ConsolidateTime != 0 || len(got.Groups) != len(groups) || got.Groups[0] != groups[0] {
			t.Fatalf("%+v: AggregatePlan must run the given groups without consolidating", o)
		}
	}
}
