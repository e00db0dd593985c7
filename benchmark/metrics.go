package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark. The tables below are the
// source of the names, units and bounds; BENCHMARK.json at the repository
// root repeats them for the driver, and bench_test.go holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before it counts as a regression.
	Bound float64
	// Exact marks a per-layer count: a public stats field or a value
	// derived only from such fields, which must repeat exactly for a seed.
	Exact bool
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_rec_per_s", Unit: "rec/s", Better: "higher", Bound: 0.25},
	{Name: "cost_speedup", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "consolidate_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of single layers, named <module>.<metric>.
// They come from the traced replay and carry no bound. A metric whose layer
// a workload never enters reads 0 on that workload.
var perLayer = []metricDef{
	{Name: "data.gen_s", Unit: "s", Better: "lower"},
	{Name: "data.decode_full_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "data.decode_lite_ns_per_rec", Unit: "ns/rec", Better: "lower"},

	{Name: "prefilter.guard_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "prefilter.synth_s", Unit: "s", Better: "lower"},
	{Name: "prefilter.admitted_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "prefilter.guard_trivial", Unit: "count", Better: "lower", Exact: true},
	{Name: "prefilter.guard_cost", Unit: "count", Better: "lower", Exact: true},

	{Name: "lang.compile_s", Unit: "s", Better: "lower"},
	{Name: "lang.vm_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "lang.vm_cost_per_rec", Unit: "count", Better: "lower", Exact: true},
	{Name: "lang.many_vm_ns_per_rec", Unit: "ns/rec", Better: "lower"},

	{Name: "engine.publish_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "engine.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.alloc_bytes_per_rec", Unit: "B/rec", Better: "lower"},
	{Name: "engine.batches", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.swaps", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.pending_runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.scale_w2", Unit: "ratio", Better: "higher"},
	{Name: "engine.pass_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.agg_fold_cost", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.agg_emit_cost", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.agg_key_cost", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.agg_windows", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.agg_hom_groups", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.agg_udf_share", Unit: "ratio", Better: "higher"},

	{Name: "consolidate.all_serial_s", Unit: "s", Better: "lower"},
	{Name: "consolidate.cleanup_s", Unit: "s", Better: "lower"},
	{Name: "consolidate.non_smt_s", Unit: "s", Better: "lower"},
	{Name: "consolidate.merge_aggs_s", Unit: "s", Better: "lower"},
	{Name: "consolidate.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "consolidate.pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "consolidate.levels", Unit: "count", Better: "lower", Exact: true},
	{Name: "consolidate.merged_size", Unit: "count", Better: "lower", Exact: true},
	{Name: "consolidate.rules_if", Unit: "count", Better: "higher", Exact: true},
	{Name: "consolidate.rules_loop", Unit: "count", Better: "higher", Exact: true},
	{Name: "consolidate.fuel_exhausted", Unit: "count", Better: "lower", Exact: true},

	{Name: "sym.collect_notify_s", Unit: "s", Better: "lower"},

	{Name: "smt.queries", Unit: "count", Better: "lower", Exact: true},
	{Name: "smt.cache_hit_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "smt.ctx_memo_hit_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "smt.ctx_fallbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "smt.unknowns", Unit: "count", Better: "lower", Exact: true},
	{Name: "smt.sat_iters", Unit: "count", Better: "lower", Exact: true},
	{Name: "smt.theory_checks", Unit: "count", Better: "lower", Exact: true},
	{Name: "smt.fresh_solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "smt.fresh_solve_s", Unit: "s", Better: "lower"},
	{Name: "smt.fresh_p50_us", Unit: "us", Better: "lower"},
	{Name: "smt.fresh_p99_us", Unit: "us", Better: "lower"},
	{Name: "smt.cache_hit_s", Unit: "s", Better: "lower"},
	{Name: "smt.replay_mismatches", Unit: "count", Better: "lower", Exact: true},

	{Name: "shard.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "shard.stall_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.admit_p99_us", Unit: "us", Better: "lower"},
	{Name: "shard.rebuild_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.rebuild_total_s", Unit: "s", Better: "lower"},
	{Name: "shard.cold_build_s", Unit: "s", Better: "lower"},
	{Name: "shard.clusters", Unit: "count", Better: "lower", Exact: true},
	{Name: "shard.splits", Unit: "count", Better: "lower", Exact: true},
	{Name: "shard.moves", Unit: "count", Better: "lower", Exact: true},

	{Name: "registry.pairs_merged", Unit: "count", Better: "lower", Exact: true},
	{Name: "registry.nodes_reused_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "registry.smt_queries", Unit: "count", Better: "lower", Exact: true},
	{Name: "registry.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "registry.merged_size_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "registry.merged_size_max", Unit: "count", Better: "lower", Exact: true},
	{Name: "registry.guard_trivial_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "registry.prefilter_s", Unit: "s", Better: "lower"},

	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// timing summarises one set of timed samples: the median, the highest
// percentile that still has at least ten samples beyond it (none below 40
// samples), and the sample count.
type timing struct {
	Median float64 `json:"median"`
	TailP  int     `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	N      int     `json:"samples"`
	// Values are the samples in the order they were taken.
	Values []float64 `json:"values"`
}

func summarise(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{Median: quantile(s, 0.5), N: len(s), Values: append([]float64(nil), samples...)}
	for _, p := range []int{99, 95, 90, 75} {
		if float64(len(s))*float64(100-p)/100 >= 10 {
			t.TailP, t.Tail = p, quantile(s, float64(p)/100)
			break
		}
	}
	return t
}

// quantile reads the q-quantile of sorted samples by linear interpolation;
// 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return summarise(samples).Median }

func sum(samples []float64) (total float64) {
	for _, v := range samples {
		total += v
	}
	return total
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
