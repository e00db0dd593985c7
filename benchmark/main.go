// Command benchmark is the repository's one benchmark: seven named
// workloads, end-to-end metrics measured with tracing off, per-layer metrics
// from a traced replay driven from outside the layers, and every output
// checked against an independent reference. See README.md beside this file.
//
//	go run ./benchmark -seed 1                      all workloads, untraced then traced
//	go run ./benchmark -workload scan-light -smoke  one workload at test size
//	go run ./benchmark -repeat 2                    two sets, compared against the bounds
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is BENCHMARK.json's command: one run of one workload, whose
// final line of output is a JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// runSeconds is the measuring time of one run, BENCHMARK.json's run_seconds.
const runSeconds = 8

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the record generators, check samples and Verify inputs")
	secs := flag.Float64("seconds", runSeconds, "measuring time of one run")
	trace := flag.String("trace", "both", "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced replay; both")
	smoke := flag.Bool("smoke", false, "test-size inputs (seconds of work in all; numbers mean nothing)")
	repeat := flag.Int("repeat", 1, "sets of runs; with 2 or more the sets are compared against the bounds")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace.json")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(*name); ok {
		names = []string{*name}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace must be 0, 1 or both"))
	}
	cfg := runConfig{seed: *seed, seconds: *secs, size: fullSize}
	if *smoke {
		cfg.size = smokeSize
	}

	var sets [][]*result
	failed := 0
	for set := 0; set < *repeat; set++ {
		var results []*result
		for _, traced := range modes {
			for _, n := range names {
				cfg.traced = traced
				r, err := runOne(n, cfg)
				if err != nil {
					fatal(err)
				}
				printResult(r)
				failed += r.Failed
				results = append(results, r)
			}
		}
		sets = append(sets, results)
	}
	if err := writeOutputs(*out, cfg, sets); err != nil {
		fatal(err)
	}
	drift := 0
	if *repeat > 1 {
		drift = compareSets(sets[0], sets[len(sets)-1])
	}
	if len(sets) == 1 && len(sets[0]) == 1 {
		fmt.Println(driverLine(sets[0][0]))
	}
	if failed > 0 || drift > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d failed checks or calls, %d metrics beyond their bound\n", failed, drift)
		os.Exit(1)
	}
}

func runOne(name string, cfg runConfig) (*result, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r, err := w.run(name, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printResult(r *result) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced replay"
	}
	fmt.Printf("%s (%s): %d records, %d UDFs, %d of %d checks and calls failed\n",
		r.Workload, mode, r.Records, r.UDFs, r.Failed, r.Attempted)
	var idle []string
	for _, d := range defsFor(r.Traced) {
		if r.Traced && r.Metrics[d.Name] == 0 {
			idle = append(idle, d.Name)
			continue
		}
		fmt.Printf("  %-32s %14.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if len(idle) > 0 {
		fmt.Printf("  0 here (layer not entered, or nothing counted): %s\n", strings.Join(idle, " "))
	}
	var sets []string
	for name := range r.Timings {
		sets = append(sets, name)
	}
	sort.Strings(sets)
	for _, name := range sets {
		t := r.Timings[name]
		line := fmt.Sprintf("  samples %-24s n %-5d median %.6g", name, t.N, t.Median)
		if t.TailP > 0 {
			line += fmt.Sprintf("  p%d %.6g", t.TailP, t.Tail)
		}
		fmt.Println(line)
	}
}

// driverLine is the one-object summary BENCHMARK.json's contract asks for.
func driverLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defsFor(r.Traced) {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// compareSets prints, per end-to-end metric and workload, the two values,
// their relative difference and the bound, and requires every exact
// per-layer count to repeat. It returns how many metrics fell outside.
func compareSets(a, b []*result) (beyond int) {
	fmt.Println("\nset 1 against the last set (same code, same seed):")
	for i, ra := range a {
		rb := b[i]
		for _, d := range defsFor(ra.Traced) {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			if ra.Traced {
				if d.Exact && va != vb {
					beyond++
					fmt.Printf("  %-14s %-30s %g != %g, must repeat exactly\n", ra.Workload, d.Name, va, vb)
				}
				continue
			}
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "BEYOND BOUND"
				beyond++
			}
			fmt.Printf("  %-14s %-16s %14.6g %14.6g  %+7.2f%% worse, bound %.0f%%  %s\n",
				ra.Workload, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return beyond
}

// environment describes where and on what the numbers were taken.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // go run does not stamp, and the driver's checkout is not a repository
}

func writeOutputs(dir string, cfg runConfig, sets [][]*result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Environment environment `json:"environment"`
		Sets        [][]*result `json:"sets"`
	}{environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(),
		cfg.seed, cfg.seconds, cfg.size == smokeSize}, sets}
	if err := writeJSON(filepath.Join(dir, "results.json"), doc, " "); err != nil {
		return err
	}
	var spans []span
	for _, r := range sets[len(sets)-1] {
		spans = append(spans, r.spans...)
	}
	if len(spans) == 0 {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace.json"), spans, "")
}

func writeJSON(path string, v any, indent string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
