package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1µs..100µs.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got, want := h.Sum(), 5050*time.Microsecond; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if got := h.Max(); got != 100*time.Microsecond {
		t.Errorf("max = %v, want 100µs", got)
	}
	// Upper-bound estimates: p50 of 1..100 lands in bucket [32,63]µs → 63µs;
	// p99 lands in [64,127]µs, clamped to the observed max 100µs.
	if got := h.Quantile(0.50); got != 63*time.Microsecond {
		t.Errorf("p50 = %v, want 63µs", got)
	}
	if got := h.Quantile(0.99); got != 100*time.Microsecond {
		t.Errorf("p99 = %v, want 100µs (clamped to max)", got)
	}
	// Estimate never undershoots the true quantile by more than 2x.
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		est := h.Quantile(q).Microseconds()
		true_ := int64(q * 100)
		if est < true_ {
			t.Errorf("q%.2f estimate %dµs below true %dµs", q, est, true_)
		}
		if est > 2*true_+1 {
			t.Errorf("q%.2f estimate %dµs above 2x true %dµs", q, est, true_)
		}
	}
}

func TestHistogramEmptyAndZero(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(0)
	h.Observe(-time.Second) // clock weirdness must not panic or corrupt
	if h.Count() != 2 || h.Quantile(1.0) != 0 {
		t.Errorf("zero-duration observations: count=%d p100=%v", h.Count(), h.Quantile(1.0))
	}
}

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every instrumentation-site method must be a no-op on nil.
	tr.BeginCampaign("c", 5)
	tr.Span("testgen", 0, time.Now())
	tr.Query(QueryEvent{Status: "sat"})
	tr.Verdict(0, 0, "counterexample", time.Millisecond)
	tr.ProgramDone()
	if c := tr.Snapshot(); c.Queries != 0 {
		t.Error("nil snapshot not zero")
	}
	if err := tr.Err(); err != nil {
		t.Error(err)
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
	stop := StartProgress(nil, tr, time.Millisecond)
	stop()
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	tr.BeginCampaign("mct-a/refined", 2)
	tr.Span("lift", 0, time.Now().Add(-2*time.Millisecond))
	tr.Query(QueryEvent{
		Prog: 0, PathA: 1, PathB: 2, Class: 7, Slot: -1,
		Status: "sat", Dur: 3 * time.Millisecond,
		Conflicts: 10, Decisions: 20, Propagations: 300,
		BlastHits: 40, BlastMisses: 5, AckReads: 2,
	})
	tr.Verdict(0, 3, "counterexample", time.Millisecond)
	tr.ProgramDone()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	kinds := []string{"campaign", "span", "query", "verdict"}
	for i, k := range kinds {
		if recs[i].Kind != k {
			t.Errorf("record %d kind = %q, want %q", i, recs[i].Kind, k)
		}
		if recs[i].V != SchemaVersion {
			t.Errorf("record %d schema v%d, want v%d", i, recs[i].V, SchemaVersion)
		}
	}
	q := recs[2]
	if q.PathA != 1 || q.PathB != 2 || q.Class != 7 || q.Slot != -1 ||
		q.Status != "sat" || q.Conflicts != 10 || q.Decisions != 20 ||
		q.Propagations != 300 || q.BlastHits != 40 || q.BlastMisses != 5 || q.AckReads != 2 {
		t.Errorf("query record mangled: %+v", q)
	}
	if q.DurUS != 3000 {
		t.Errorf("query dur = %dµs, want 3000", q.DurUS)
	}
	if recs[3].Test != 3 || recs[3].Verdict != "counterexample" {
		t.Errorf("verdict record mangled: %+v", recs[3])
	}

	// Aggregates track the same events.
	c := tr.Snapshot()
	if c.Programs != 1 || c.Experiments != 1 || c.Counterexamples != 1 ||
		c.Queries != 1 || c.Conflicts != 10 || c.BlastHits != 40 || c.AckReads != 2 {
		t.Errorf("aggregates diverge from trace: %+v", c)
	}
	if len(c.Stages) != 1 || c.Stages[0].Name != "lift" || c.Stages[0].Count != 1 {
		t.Errorf("stage aggregates: %+v", c.Stages)
	}
}

func TestReadTraceRejectsPartialFinalLine(t *testing.T) {
	// Mirror of logdb's torn-line contract: a crash mid-append leaves a
	// final line without its newline; the truncated JSON must be rejected
	// with an error naming the line, not silently dropped or misparsed.
	var buf bytes.Buffer
	tr := New(&buf)
	tr.Span("execute", 0, time.Now())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	partial := full + `{"v":1,"kind":"query","status":"sa`
	if _, err := ReadTrace(strings.NewReader(partial)); err == nil {
		t.Fatal("partially-written final line must be rejected")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name the torn line: %v", err)
	}
	// The intact prefix alone still reads back.
	recs, err := ReadTrace(strings.NewReader(full))
	if err != nil || len(recs) != 1 {
		t.Fatalf("intact trace: %v, %d records", err, len(recs))
	}
}

func TestReadTraceRejectsNewerSchemaAndKindless(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`{"v":99,"kind":"span"}`)); err == nil ||
		!strings.Contains(err.Error(), "v99") {
		t.Errorf("newer schema must be rejected by version: %v", err)
	}
	if _, err := ReadTrace(strings.NewReader(`{"v":1,"ts_us":0}`)); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Errorf("kindless record must be rejected: %v", err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

var errFull = &writeError{"disk full"}

type writeError struct{ s string }

func (e *writeError) Error() string { return e.s }

func TestTracerStickyWriteError(t *testing.T) {
	tr := New(&failWriter{n: 1}) // fails once the buffer flushes
	for i := 0; i < 100000; i++ {
		tr.Span("testgen", i, time.Now())
	}
	err := tr.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write failure swallowed: %v", err)
	}
	if tr.Err() == nil {
		t.Error("Err() should report the sticky write error")
	}
}

func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Span("execute", w, time.Now())
				tr.Query(QueryEvent{Prog: w, Status: "sat", Dur: time.Microsecond, Conflicts: 1})
				tr.Verdict(w, i, "indistinguishable", time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8*200*3 {
		t.Fatalf("got %d records, want %d (interleaved writes tore lines?)", len(recs), 8*200*3)
	}
	c := tr.Snapshot()
	if c.Queries != 1600 || c.Conflicts != 1600 || c.Experiments != 1600 {
		t.Errorf("aggregates lost updates: %+v", c)
	}
}

func TestRenderProgressWithStages(t *testing.T) {
	prev := Counters{Queries: 100, Stages: []StageCount{
		{Name: "testgen", Busy: 1 * time.Second},
		{Name: "execute", Busy: 1 * time.Second},
	}}
	cur := Counters{
		TotalPrograms: 24, Programs: 5, Experiments: 180, Counterexamples: 12,
		Queries: 300,
		Stages: []StageCount{
			{Name: "testgen", Busy: 4 * time.Second},
			{Name: "execute", Busy: 2 * time.Second},
		},
	}
	line := RenderProgress(cur, prev, 10*time.Second)
	for _, want := range []string{"progs 5/24", "exps 180", "cex 12", "queries 300 (20.0/s)", "busy%", "testgen 75", "execute 25"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
}

func TestRenderProgressWithoutStages(t *testing.T) {
	// No stage samples yet: the line carries the program-level counts
	// without panicking or printing a busy section.
	cur := Counters{TotalPrograms: 8, Programs: 3, Experiments: 120, Queries: 40}
	line := RenderProgress(cur, Counters{}, time.Second)
	if !strings.Contains(line, "progs 3/8") || strings.Contains(line, "busy%") {
		t.Errorf("stageless line wrong: %q", line)
	}
	// Zero-duration interval and all-zero counters must not divide by zero.
	line = RenderProgress(Counters{}, Counters{}, 0)
	if !strings.Contains(line, "progs 0/0") {
		t.Errorf("zero line wrong: %q", line)
	}
}

func TestStartProgressEmitsAndStops(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	tr := New(nil)
	tr.BeginCampaign("p", 4)
	tr.ProgramDone()
	stop := StartProgress(w, tr, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progs 1/4") {
		t.Errorf("progress output missing counts: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("final line not newline-terminated: %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
