package main

import (
	"runtime"
	"time"
)

// programSeed draws every workload's programs (UDFs, gating thresholds,
// aggregations, churn order). It is fixed, not taken from -seed: a workload
// is defined by its program set, as a compiler benchmark is by its input
// programs, and consolidation time differs by half between two draws of the
// same family — far more than any bound. -seed draws the records, the
// samples the checks re-evaluate, and the inputs handed to Verify.
const programSeed = 20140609

// sizes fixes how much work each workload does. The full size is what
// BENCHMARK.json's command measures; the smoke size lets bench_test.go run
// every workload in seconds.
type sizes struct {
	tweets int // scan-*
	denseN int // scan-dense UDFs

	articles int // merge-calls, live-churn
	mixN     int // merge-calls UDFs

	weatherN, stockN        int // merge-loops UDFs per family
	cities, companies, days int // merge-loops datasets

	liveN           int // live-churn seed queries
	eventsPerSecond int // churn events per second of -seconds, rounded up to tens
	maxCluster      int // shard split threshold; 0 is the shard default

	stations, hours, aggN int // agg-windows

	sample   int // records re-evaluated with the interpreter
	verifies int // inputs handed to consolidate.Verify per part
	setups   int // least set-up repetitions (median reported)
	iters    int // least closed-loop iterations, however short -seconds is
	replays  int // stage replays per traced run (median reported)
}

var fullSize = sizes{
	tweets:   311520, // 10x the paper's 31,152
	denseN:   50,
	articles: 1904, mixN: 50,
	weatherN: 6, stockN: 4, cities: 500, companies: 100, days: 3774,
	liveN: 400, eventsPerSecond: 5,
	stations: 800, hours: 240, aggN: 20,
	sample: 2000, verifies: 4, setups: 3, iters: 3, replays: 3,
}

var smokeSize = sizes{
	tweets: 3000, denseN: 12,
	articles: 120, mixN: 4,
	weatherN: 2, stockN: 2, cities: 20, companies: 4, days: 60,
	liveN: 16, eventsPerSecond: 10, maxCluster: 6,
	stations: 20, hours: 36, aggN: 6,
	sample: 40, verifies: 1, setups: 1, iters: 1, replays: 1,
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	size    sizes
}

// result is what one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Records   int                `json:"records"`
	UDFs      int                `json:"udfs"`
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]timing  `json:"timings,omitempty"`
	spans     []span
}

func newResult(name string, traced bool) *result {
	r := &result{Workload: name, Traced: traced, Metrics: map[string]float64{}, Timings: map[string]timing{}}
	if traced {
		for _, m := range perLayer {
			r.Metrics[m.Name] = 0
		}
	}
	return r
}

// setTiming reports the median of samples under name and keeps the summary.
func (r *result) setTiming(name string, samples []float64) {
	t := summarise(samples)
	r.Metrics[name] = t.Median
	r.Timings[name] = t
}

// call counts one call into the program under test; an error is a failure.
func (r *result) call(err error) error {
	r.Attempted++
	if err != nil {
		r.Failed++
	}
	return err
}

// verdicts counts verdicts compared with a reference.
func (r *result) verdicts(checked, differing int) {
	r.Attempted += checked
	r.Failed += differing
}

// workload is one named set of inputs. The names are fixed: later issues
// refer to them.
type workload struct {
	name string
	why  string
	run  func(name string, cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"scan-dense", "Twitter Q2, 50 ungated UDFs over 311,520 tweets: the merged VM does most of the work and the guard is trivial, so a VM or codegen change shows here first.", runFilter(denseParts)},
	{"scan-light", "Same tweets, 10 cheap UDFs: full-record decode and verdict publish dominate and the VM does little.", runFilter(scanParts(10, false))},
	{"scan-selective", "Same tweets, 10 UDFs gated at 1% selectivity: lite decode and the synthesized guard reject 99% of records before full decode or the VM.", runFilter(scanParts(10, true))},
	{"merge-calls", "Cold consolidation of 50 news Mix UDFs: SMT cache, solving contexts, sym and simplify/DCE on big call-heavy programs dominate; fresh solving is minor.", runFilter(mixParts)},
	{"merge-loops", "Cold consolidation of weather Q3 and stock Q3 loop families: fresh solves (simplex, CDCL, invariants) dominate and the cache does nothing.", runFilter(loopParts)},
	{"live-churn", "News Mix in a sharded live registry: seeded Add/Remove events each followed by Rebuild, with WhereSharded passes between, so writes run beside reads.", runLive},
	{"agg-windows", "20 keyed windowed aggregations over a weather stream: the second operator tier (fold/emit VM, key extraction, partial/combine).", runAgg},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timed runs f after a garbage collection that stays outside the timed
// region, so one call's garbage is not charged to the next.
func timed(f func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// closedLoop issues iterations back to back — the next starts when the
// previous returns — until the time is used, and at least min times.
func closedLoop(seconds float64, min int, iter func() error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		if err := iter(); err != nil {
			return err
		}
	}
	return nil
}

// coldReps is how many cold consolidations one iteration makes: one, or as
// many as fit in a third of the engine call's wall (at most 16) where
// consolidation is cheap, since the median of a few short samples is not
// steady. The walls are those of the warm-up iteration.
func coldReps(cold, call time.Duration) int {
	if cold <= 0 {
		return 1
	}
	n := int(call / 3 / cold)
	if n < 1 {
		return 1
	}
	if n > 16 {
		return 16
	}
	return n
}

// repeatSetup times a workload's set-up several times, so that setup_s is a
// median: at least size.setups times, and on — a cheap set-up is a noisy one —
// while a fifth of the run's measuring time is unspent, up to five times as
// often. The last generation is the one the run uses; all are equal.
func repeatSetup(cfg runConfig, setup func() error) ([]float64, error) {
	var walls []float64
	var spent time.Duration
	budget := time.Duration(cfg.seconds / 5 * float64(time.Second))
	for i := 0; i < cfg.size.setups || i < 5*cfg.size.setups && spent < budget; i++ {
		d, err := timed(setup)
		if err != nil {
			return nil, err
		}
		walls = append(walls, d.Seconds())
		spent += d
	}
	return walls, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
