package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// The self-tests run every workload at its tiny size through the same code
// as a benchmark run: go test ./... from this directory.

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig(t *testing.T, w *workload) runConfig {
	return runConfig{w: w, seed: goldenSeed, programs: w.tiny, workdir: t.TempDir()}
}

// TestDefaultPath pins every workload to the paper's one path: the staged
// engine with the incremental solver, no racing, no shape cache, and no
// more parallelism than the host has CPUs.
func TestDefaultPath(t *testing.T) {
	for _, w := range workloads {
		e, err := runConfig{w: w, seed: goldenSeed, programs: w.programs}.experiment(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if e.Portfolio != 0 || e.SharedCache || e.LegacySolver || e.Monolithic {
			t.Errorf("%s leaves the default path: portfolio=%d shared-cache=%v legacy=%v monolithic=%v",
				w.name, e.Portfolio, e.SharedCache, e.LegacySolver, e.Monolithic)
		}
		if e.Parallel < 1 || e.Parallel > runtime.NumCPU() {
			t.Errorf("%s: Parallel %d outside 1..%d", w.name, e.Parallel, runtime.NumCPU())
		}
	}
}

// TestTinyDigests checks each workload's tiny campaign against its golden.
func TestTinyDigests(t *testing.T) {
	for _, w := range workloads {
		c := tinyConfig(t, w)
		r, err := runCampaign(c, goldenSeed, false, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.inconsistent != nil {
			t.Errorf("%s: %v", w.name, r.inconsistent)
		}
		if want := goldenDigest(w.name, w.tiny, goldenSeed); r.digest != want {
			t.Errorf("%s: digest %s, golden %q", w.name, r.digest, want)
		}
	}
}

// TestRunsEmitEveryMetric runs the end-to-end and the traced run of each
// workload at its tiny size with no time budget and checks that both are
// correct and print every metric they declare, under a valid name.
func TestRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		c := tinyConfig(t, w)
		e2e, err := endToEndRun(c)
		if err != nil {
			t.Fatalf("%s end-to-end: %v", w.name, err)
		}
		tr, err := tracedRun(c, fingerprint(w), t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, run := range []struct {
			res  *result
			defs []struct{ name, unit string }
		}{{e2e, endToEndMetrics}, {tr, perLayerMetrics}} {
			if !run.res.Correct || run.res.Failed != 0 {
				t.Errorf("%s: run not correct: %+v", w.name, run.res)
			}
			if len(run.res.Metrics) != len(run.defs) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(run.res.Metrics), len(run.defs))
			}
			for _, d := range run.defs {
				m, ok := run.res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s missing or not in %s: %+v", w.name, d.name, d.unit, m)
				}
				if !metricName.MatchString(d.name) {
					t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.name)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, g := range []struct {
		json []def
		code []struct{ name, unit string }
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(g.json) != len(g.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(g.json), len(g.code))
			continue
		}
		for i, d := range g.json {
			if d.Name != g.code[i].name || d.Unit != g.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, d.Name, d.Unit, g.code[i].name, g.code[i].unit)
			}
		}
	}
}
