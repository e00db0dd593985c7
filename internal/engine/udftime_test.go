package engine_test

import (
	"math"
	"testing"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// TestUDFTimeWithinTotal checks the sampled UDFTime on the four filter
// operators with one worker, over tweets (a timed run includes a clock read,
// which only a real decode outweighs): some UDF time is reported, and no
// more than the pass took. The estimate scales a sample, so a stall inside
// a timed run is multiplied; the worker's clamp to its own wall time keeps
// it within the pass. Half the tweets pass the guard, so both the
// batch-timed guard stage and the sampled stage contribute; the two
// unguarded rows rest on the sampled clock alone.
func TestUDFTimeWithinTotal(t *testing.T) {
	tw := data.GenTwitter(data.TwitterConfig{Tweets: 20000, Seed: 23})
	udfs := gatedTwitterUDFs(4, tw.FollowerQuantile(0.5))
	pf := &prefilter.Options{Coster: tw, MaxCallCost: tw.LiteCostBound()}

	// Three registries: one guarded cluster, one unguarded cluster, and
	// guarded clusters of two.
	var regs [3]*shard.ShardedRegistry
	for i, o := range [3]shard.Options{
		{Registry: registry.Options{Prefilter: pf}, MaxClusterSize: math.MaxInt},
		{MaxClusterSize: math.MaxInt},
		{Registry: registry.Options{Prefilter: pf}, MaxClusterSize: 2},
	} {
		o.MinSimilarity = -1
		sh, err := shard.New(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range udfs {
			if _, err := sh.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sh.Rebuild(); err != nil {
			t.Fatal(err)
		}
		regs[i] = sh
	}
	opts := engine.Options{Workers: 1}
	sharded := func(sh *shard.ShardedRegistry) func() (time.Duration, time.Duration, error) {
		return func() (time.Duration, time.Duration, error) {
			r, err := engine.WhereSharded(tw, sh, opts)
			if err != nil {
				return 0, 0, err
			}
			return r.UDFTime, r.TotalTime, nil
		}
	}

	copts := consolidate.Options{FuncCoster: tw}
	passes := []struct {
		name string
		run  func() (udf, total time.Duration, err error)
	}{
		{"WhereMany", func() (time.Duration, time.Duration, error) {
			r, err := engine.WhereMany(tw, udfs, opts)
			if err != nil {
				return 0, 0, err
			}
			return r.UDFTime, r.TotalTime, nil
		}},
		{"WhereConsolidated", func() (time.Duration, time.Duration, error) {
			r, err := engine.WhereConsolidated(tw, udfs, copts, opts)
			if err != nil {
				return 0, 0, err
			}
			if r.Rejected == 0 || r.Admitted == 0 {
				t.Errorf("guard admitted %d and rejected %d: both stages should run", r.Admitted, r.Rejected)
			}
			return r.UDFTime, r.TotalTime, nil
		}},
		{"WherePlan/unguarded", func() (time.Duration, time.Duration, error) {
			r, err := unguardedPass(tw, udfs, copts, opts)
			if err != nil {
				return 0, 0, err
			}
			return r.UDFTime, r.TotalTime, nil
		}},
		{"WhereSharded/one-cluster", sharded(regs[0])},
		{"WhereSharded/one-cluster/unguarded", sharded(regs[1])},
		{"WhereSharded", sharded(regs[2])},
	}
	for _, p := range passes {
		udf, total, err := p.run()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if udf <= 0 || udf > total {
			t.Errorf("%s: UDFTime %v, TotalTime %v; want 0 < UDFTime <= TotalTime", p.name, udf, total)
		}
	}
}
