package scamv

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"scamv/internal/journal"
)

// benchResumeRow is one configuration's entry in BENCH_resume.json.
type benchResumeRow struct {
	Mode            string  `json:"mode"` // "plain" or "journaled"
	Programs        int     `json:"programs"`
	Experiments     int     `json:"experiments"`
	Counterexamples int     `json:"counterexamples"`
	Queries         int     `json:"queries"`
	Checkpoints     int     `json:"checkpoints,omitempty"`
	WallMS          float64 `json:"wall_ms"`
}

// benchResumeRun runs the MLine campaign either plain or with a write-ahead
// journal armed at the default checkpoint cadence — the configuration a
// long-lived `scamv -checkpoint` campaign would pay for, fsync per program
// completion included.
func benchResumeRun(t *testing.T, journaled bool, parallel int) benchResumeRow {
	t.Helper()
	e := goldenMLineCampaign()
	e.Name = "bench-resume-mline"
	e.Programs = 8
	e.Parallel = parallel

	row := benchResumeRow{Mode: "plain"}
	if journaled {
		row.Mode = "journaled"
		j, err := journal.Open(t.TempDir(), e.Name, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		e.Journal = j
	}

	w0 := time.Now()
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	row.WallMS = float64(time.Since(w0).Microseconds()) / 1e3
	row.Programs = res.Programs
	row.Experiments = res.Experiments
	row.Counterexamples = res.Counterexamples
	row.Queries = res.Queries
	row.Checkpoints = res.Checkpoints
	return row
}

// TestWriteBenchResume measures the durability tax: the same campaign with
// and without the write-ahead journal (fsync per program, periodic atomic
// checkpoints). Gated behind BENCH_RESUME=1:
//
//	BENCH_RESUME=1 go test -run TestWriteBenchResume -count=1 .
//
// (or `make bench-resume`). Interleaved fastest-of-two like the other
// benches; target ≤1.05x, hard flake ceiling 1.25x.
func TestWriteBenchResume(t *testing.T) {
	if os.Getenv("BENCH_RESUME") == "" {
		t.Skip("set BENCH_RESUME=1 to run the journal-overhead benchmark")
	}
	const parallel = 4
	var plain, journaled benchResumeRow
	for i := 0; i < 2; i++ {
		p := benchResumeRun(t, false, parallel)
		j := benchResumeRun(t, true, parallel)
		if i == 0 || p.WallMS < plain.WallMS {
			plain = p
		}
		if i == 0 || j.WallMS < journaled.WallMS {
			journaled = j
		}
	}

	// Durability must record the campaign, not change it: identical counts.
	if journaled.Experiments != plain.Experiments ||
		journaled.Counterexamples != plain.Counterexamples ||
		journaled.Queries != plain.Queries {
		t.Errorf("journal changed campaign counts:\nplain     %+v\njournaled %+v", plain, journaled)
	}
	if journaled.Checkpoints == 0 {
		t.Error("journaled run wrote zero checkpoints")
	}

	overhead := 0.0
	if plain.WallMS > 0 {
		overhead = journaled.WallMS / plain.WallMS
	}
	out := struct {
		Date      string         `json:"date"`
		Campaign  string         `json:"campaign"`
		Cores     int            `json:"gomaxprocs"`
		Plain     benchResumeRow `json:"plain"`
		Journaled benchResumeRow `json:"journaled"`
		Overhead  float64        `json:"wall_clock_overhead"`
		Target    float64        `json:"target"`
	}{
		Date:     time.Now().UTC().Format("2006-01-02"),
		Campaign: "MLine-support, TemplateA^3 (8 paths), refined MCt/SpecAll, 8 programs x 40 tests, seed 2021, parallel 4; journaled = fsync-per-program WAL + periodic atomic checkpoints",
		Cores:    runtime.GOMAXPROCS(0),
		Plain:    plain, Journaled: journaled,
		Overhead: overhead,
		Target:   1.05,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_resume.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("journal overhead: %.3fx (plain %.1fms, journaled %.1fms, %d checkpoints) on %d core(s)",
		overhead, plain.WallMS, journaled.WallMS, journaled.Checkpoints, out.Cores)
	if overhead > 1.25 {
		t.Errorf("journal overhead %.2fx exceeds the 1.25x flake ceiling (target 1.05x)", overhead)
	}
}
