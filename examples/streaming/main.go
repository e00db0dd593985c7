// Streaming: the paper's deployment scenario end to end. Fifty
// parameterised stock-screening queries run through the mini dataflow
// engine twice — sequentially per record (whereMany) and as one
// consolidated UDF (whereConsolidated) — and the example reports the same
// speedups Figure 9 plots. A second act opens the windowed workload: six
// per-ticker rolling aggregations over a tick stream merged into one
// shared window traversal (aggregateMany vs aggregateConsolidated).
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

func main() {
	// A small stock dataset: 20 companies × 252 trading days.
	ds := data.GenStock(data.StockConfig{Companies: 20, Days: 252, Seed: 7})

	// Fifty queries from the stock families: average volume, maximum value,
	// standard deviation, each with its own thresholds.
	udfs := queries.MustGen("stock", "Q2", 50, 11)
	fmt.Printf("generated %d queries, e.g.:\n%s\n", len(udfs), udfs[0].Body)

	many, err := engine.WhereMany(ds, udfs, engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ds
	cons, err := engine.WhereConsolidated(ds, udfs, copts, engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if !engine.SameResults(many, &cons.Result) {
		log.Fatal("operators disagree on selected records")
	}

	fmt.Println("\n              whereMany     whereConsolidated")
	fmt.Printf("UDF cost      %-12d  %d\n", many.UDFCost, cons.UDFCost)
	fmt.Printf("UDF time      %-12s  %s\n",
		many.UDFTime.Round(time.Millisecond), cons.UDFTime.Round(time.Millisecond))
	fmt.Printf("total time    %-12s  %s (+ %s consolidation)\n",
		many.TotalTime.Round(time.Millisecond), cons.TotalTime.Round(time.Millisecond),
		cons.ConsolidateTime.Round(time.Millisecond))
	fmt.Printf("\nUDF speedup   %.1fx (cost %.1fx)\n",
		float64(many.UDFTime)/float64(cons.UDFTime),
		float64(many.UDFCost)/float64(cons.UDFCost))
	fmt.Printf("loop fusions  Loop2=%d Loop3=%d  (merged program: %d AST nodes)\n",
		cons.Multi.Rules.Loop2, cons.Multi.Rules.Loop3, cons.Multi.OutputSize)

	// Act two — the windowed workload. Six rolling aggregations over a
	// trade tick stream, each windowing the last 10 ticks per instrument
	// (OHLC-style per-ticker windows). All six share one window spec, so
	// aggregateConsolidated merges them into a single traversal that pays
	// each record's decode and accessor calls once; the merged fold's
	// accumulators are all sums/maxes/mins, so it verifies homomorphic and
	// the batched engine splits windows across workers as partial/combine.
	ticks := data.GenStockTicks(data.StockTicksConfig{Tickers: 10, Ticks: 60, Seed: 7})
	aggs, err := queries.GenAgg("stock", 6, 10, true, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated %d windowed aggregations, e.g.:\n%s\n", len(aggs), lang.FormatAgg(aggs[0]))

	manyAgg, err := engine.AggregateMany(ticks, aggs, engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	acopts := consolidate.DefaultOptions()
	acopts.FuncCoster = ticks
	consAgg, err := engine.AggregateConsolidated(ticks, aggs, acopts, engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if !engine.SameAggResults(manyAgg, &consAgg.AggResult) {
		log.Fatal("merged aggregation disagrees with the per-aggregation replay")
	}
	g := consAgg.Groups[0]
	fmt.Printf("merged: %d aggregations -> %d traversal (%s), homomorphic=%v\n",
		len(aggs), len(consAgg.Groups), g.Window, g.Homomorphic)
	fmt.Printf("windows       %d per aggregation, outputs identical to replay\n", manyAgg.Outputs[0].Windows)
	fmt.Printf("UDF cost      %d -> %d (%.2fx cheaper)\n",
		manyAgg.UDFCost, consAgg.UDFCost, float64(manyAgg.UDFCost)/float64(consAgg.UDFCost))
	fmt.Printf("UDF time      %s -> %s (+ %s consolidation)\n",
		manyAgg.UDFTime.Round(time.Millisecond), consAgg.UDFTime.Round(time.Millisecond),
		consAgg.ConsolidateTime.Round(time.Millisecond))
}
