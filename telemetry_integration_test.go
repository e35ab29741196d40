package scamv

import (
	"bytes"
	"testing"

	"scamv/internal/gen"
	"scamv/internal/telemetry"
)

// traceCampaign is a small refined M_ct campaign for telemetry round trips.
func traceCampaign(parallel int) Experiment {
	_, refined := MCtExperiments(gen.TemplateA{}, 3, 6, 2021)
	refined.Name = "trace-mct-a"
	refined.Parallel = parallel
	return refined
}

// traceCounts aggregates a trace for parallel-invariance checks.
type traceCounts struct {
	campaigns, spans, queries, verdicts int
	cex                                 int
	spanStages                          map[string]int
	statuses                            map[string]int
}

func countTrace(recs []telemetry.Record) traceCounts {
	c := traceCounts{spanStages: map[string]int{}, statuses: map[string]int{}}
	for _, r := range recs {
		switch r.Kind {
		case "campaign":
			c.campaigns++
		case "span":
			c.spans++
			c.spanStages[r.Stage]++
		case "query":
			c.queries++
			c.statuses[r.Status]++
		case "verdict":
			c.verdicts++
			if r.Verdict == "counterexample" {
				c.cex++
			}
		}
	}
	return c
}

func runTraced(t *testing.T, parallel int) (*Result, []telemetry.Record, telemetry.Counters) {
	t.Helper()
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	e := traceCampaign(parallel)
	e.Trace = tr
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, recs, tr.Snapshot()
}

// TestTraceMatchesResult checks that the JSONL trace of a staged campaign
// agrees record-for-record with the campaign Result: one span per program
// per stage, one query event per solver query, one verdict per experiment.
func TestTraceMatchesResult(t *testing.T) {
	res, recs, snap := runTraced(t, 2)

	c := countTrace(recs)
	if c.campaigns != 1 {
		t.Errorf("campaign records = %d, want 1", c.campaigns)
	}
	if recs[0].Kind != "campaign" || recs[0].Name != "trace-mct-a" || recs[0].Programs != 3 {
		t.Errorf("first record must announce the campaign: %+v", recs[0])
	}
	for _, stage := range []string{"proggen", "encode", "lift", "symexec", "testgen", "execute"} {
		if c.spanStages[stage] != res.Programs {
			t.Errorf("stage %s has %d spans, want %d (one per program)",
				stage, c.spanStages[stage], res.Programs)
		}
	}
	if c.queries != res.Queries {
		t.Errorf("query events = %d, want Result.Queries = %d", c.queries, res.Queries)
	}
	if c.verdicts != res.Experiments {
		t.Errorf("verdict events = %d, want Result.Experiments = %d", c.verdicts, res.Experiments)
	}
	if c.cex != res.Counterexamples {
		t.Errorf("counterexample verdicts = %d, want %d", c.cex, res.Counterexamples)
	}
	if c.statuses["sat"] == 0 {
		t.Error("a campaign that generated tests must have sat queries")
	}
	// Query events carry effort: at least one must show search activity.
	var effort int64
	for _, r := range recs {
		if r.Kind == "query" {
			effort += r.Propagations + r.Decisions
		}
	}
	if effort == 0 {
		t.Error("query events carry no solver effort deltas")
	}

	// The live aggregates agree with the trace and the Result.
	if snap.Programs != int64(res.Programs) || snap.Experiments != int64(res.Experiments) ||
		snap.Counterexamples != int64(res.Counterexamples) || snap.Queries != int64(res.Queries) {
		t.Errorf("snapshot diverges from result: %+v vs %+v", snap, res)
	}
	if snap.TotalPrograms != 3 {
		t.Errorf("snapshot total programs = %d, want 3", snap.TotalPrograms)
	}
}

// TestTraceParallelEquivalence checks that a sequential and an overlapped
// run of the same seed emit the same trace aggregate: the telemetry spine
// must not depend on scheduling.
func TestTraceParallelEquivalence(t *testing.T) {
	res1, recs1, _ := runTraced(t, 1)
	res4, recs4, _ := runTraced(t, 4)

	if res1.Experiments != res4.Experiments ||
		res1.Counterexamples != res4.Counterexamples ||
		res1.Queries != res4.Queries {
		t.Fatalf("runs diverge before telemetry comparison: %+v vs %+v", res1, res4)
	}
	c1, c4 := countTrace(recs1), countTrace(recs4)
	if c1.spans != c4.spans || c1.queries != c4.queries || c1.verdicts != c4.verdicts || c1.cex != c4.cex {
		t.Errorf("trace shape differs across Parallel settings:\nparallel=1 %+v\nparallel=4 %+v", c1, c4)
	}
	for stage, n := range c1.spanStages {
		if c4.spanStages[stage] != n {
			t.Errorf("stage %s: %d spans at parallel=1 vs %d at parallel=4", stage, n, c4.spanStages[stage])
		}
	}
	for status, n := range c1.statuses {
		if c4.statuses[status] != n {
			t.Errorf("status %s: %d queries at parallel=1 vs %d at parallel=4", status, n, c4.statuses[status])
		}
	}
}

// TestTracingDoesNotPerturbCounts ensures an attached tracer leaves the
// campaign's deterministic counts untouched (observation must not refine
// the observed system, as it were).
func TestTracingDoesNotPerturbCounts(t *testing.T) {
	plain := traceCampaign(2)
	res0, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	res1, _, _ := runTraced(t, 2)
	if res0.Experiments != res1.Experiments || res0.Counterexamples != res1.Counterexamples ||
		res0.Inconclusive != res1.Inconclusive || res0.Queries != res1.Queries ||
		res0.FirstCEProgram != res1.FirstCEProgram || res0.FirstCETest != res1.FirstCETest {
		t.Errorf("tracing perturbed campaign counts:\nplain  %+v\ntraced %+v", res0, res1)
	}
}
