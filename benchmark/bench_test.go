package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func specOf(defs []metricDef) []specMetric {
	out := make([]specMetric, len(defs))
	for i, d := range defs {
		out[i] = specMetric{d.Name, d.Unit, d.Better, d.Bound}
	}
	return out
}

// TestSpecMatchesTables holds BENCHMARK.json and the tables in the program
// equal: workload names and reasons, metric names, units, directions and
// bounds, and the run length.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	if s.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program measures %d", s.RunSeconds, runSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}
	if got, want := s.EndToEnd, specOf(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", got, want)
	}
	if got, want := s.PerLayer, specOf(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload at smoke size, twice in each mode, and
// requires: exactly the metrics of the tables, no failed check or call,
// end-to-end metrics that are never 0, and cost_speedup and every exact
// per-layer count identical between the two runs.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 3, seconds: 0.05, size: smokeSize}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			a, err := runOne(w.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOne(w.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defs := defsFor(traced)
			if len(a.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d defined", w.name, traced, len(a.Metrics), len(defs))
			}
			if a.Failed != 0 || b.Failed != 0 || a.Attempted < 1 {
				t.Errorf("%s traced=%v: %d and %d failures of %d attempted", w.name, traced, a.Failed, b.Failed, a.Attempted)
			}
			for _, d := range defs {
				va, ok := a.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", w.name, traced, d.Name)
				}
				if !traced && va == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
				if (d.Exact || d.Name == "cost_speedup") && va != b.Metrics[d.Name] {
					t.Errorf("%s: %s is %v, then %v; it must repeat exactly", w.name, d.Name, va, b.Metrics[d.Name])
				}
			}
			if traced && a.Metrics["smt.replay_mismatches"] != 0 {
				t.Errorf("%s: %v SMT verdicts changed on replay", w.name, a.Metrics["smt.replay_mismatches"])
			}
		}
	}
}

// TestFlippedRowIsCounted is the negative control of the reference check: a
// verdict row flipped on purpose must show in the failure count and make
// the run incorrect.
func TestFlippedRowIsCounted(t *testing.T) {
	want := [][]bool{{true, false, true}, {false, false, true}, {true, true, false}}
	got := [][]bool{{true, false, true}, {true, true, false}, {true, true, false}}
	res := newResult("scan-light", false)
	res.verdicts(diffBools(want, got))
	if res.Attempted != 9 || res.Failed != 3 {
		t.Fatalf("flipped row: %d failed of %d, want 3 of 9", res.Failed, res.Attempted)
	}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != 3 {
		t.Errorf("driver line reports correct=%v failed=%d for a flipped row", line.Correct, line.Failed)
	}
	// A missing row differs in every cell.
	if _, d := diffBools(want, got[:2]); d != 6 {
		t.Errorf("missing row: %d differing, want 6", d)
	}
}
