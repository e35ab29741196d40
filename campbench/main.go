// Command campbench is the scamv campaign benchmark: three pinned
// validation campaigns run through scamv.RunContext on the default path
// (staged engine, incremental solver), measured end to end, checked against
// a golden digest, and — in a separate traced run — broken down layer by
// layer with spans kept by this package around calls into each layer's
// public functions. Nothing inside the program is instrumented.
//
// Usage (from the repository root; campbench/run.sh builds and runs it):
//
//	campbench --workload mline-gen --seed 2021 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry the host
// fingerprint, the output digest and, for traced runs, the span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxProcs is the benchmark's GOMAXPROCS, and the cap on every campaign's
// Experiment.Parallel: two, or fewer when the host has fewer CPUs.
func maxProcs() int {
	return min(2, runtime.NumCPU())
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: mline-gen, zoo-exec or durable-mpart")
	seed := flag.Int64("seed", 2021, "campaign seed")
	seconds := flag.Float64("seconds", 10, "measurement time of one run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	out := flag.String("out", ".bench_build/campbench-out", "directory for campaign files and span dumps")
	writeGolden := flag.String("write-golden", "", "compute the seed-2021 digests of every workload and write them to this file")
	flag.Parse()

	runtime.GOMAXPROCS(maxProcs())
	if *writeGolden != "" {
		if err := writeGoldenFile(*writeGolden, *out); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	h := fingerprint(w)
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)

	workdir := filepath.Join(*out, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(workdir)

	cfg := runConfig{w: w, seed: *seed, programs: w.programs, budget: time.Duration(*seconds * float64(time.Second)), workdir: workdir}
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(cfg, h, *out)
	} else {
		res, err = endToEndRun(cfg)
	}
	if err != nil {
		os.RemoveAll(workdir)
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campbench:", err)
	os.Exit(1)
}
