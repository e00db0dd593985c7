package lang_test

import (
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
)

// BenchmarkRunnerMerged times the VM on Ω's merged program for 12 UDFs of
// the Figure 9 families whose instructions no benchmark workload
// dispatches: flight Q1 (vAnd), flight Q2 (vJFLtVI, vAnd), twitter Q1
// (vJFLeIV) and news BC (vEq, vAnd and the generic compound tests). One op
// is one record of the family's generated dataset, run as the engine runs
// it; steady state allocates nothing.
func BenchmarkRunnerMerged(b *testing.B) {
	flights := data.GenFlight(data.FlightConfig{Airlines: 200, Cities: 10, Days: 15, Seed: 2})
	for _, f := range []struct {
		domain, family string
		lib            engine.RecordLibrary
	}{
		{"flight", "Q1", flights},
		{"flight", "Q2", flights},
		{"twitter", "Q1", data.GenTwitter(data.TwitterConfig{Tweets: 2000, Seed: 4})},
		{"news", "BC", data.GenNews(data.NewsConfig{Articles: 500, VocabSize: 5000, Seed: 3})},
	} {
		copts := consolidate.DefaultOptions()
		copts.FuncCoster = f.lib
		merged, _, err := consolidate.All(queries.MustGen(f.domain, f.family, 12, 1), copts, true, true)
		if err != nil {
			b.Fatal(err)
		}
		c := lang.MustCompile(merged)
		b.Run(f.domain+"/"+f.family, func(b *testing.B) {
			rn := lang.NewRunner(c, f.lib)
			if err := rn.BeginBatch1(); err != nil {
				b.Fatal(err)
			}
			n := f.lib.NumRecords()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.lib.SetRecord(i % n)
				if _, err := rn.RunDense1(int64(i % n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
