package scamv

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scamv/internal/telemetry"
)

// TestObservatory is the end-to-end smoke of the campaign observatory: a
// tiny campaign with the aggregates-only tracer, a debug endpoint on an
// ephemeral port, and an armed flight recorder — then scrape /metrics,
// load the live page, read one SSE tick, and force an anomaly capture.
// This is what `make obs-smoke` runs.
func TestObservatory(t *testing.T) {
	tr := telemetry.New(nil)
	flightDir := filepath.Join(t.TempDir(), "flights")
	fr := tr.StartFlightRecorder(telemetry.FlightConfig{Dir: flightDir})
	defer fr.Stop()

	srv, addr, err := telemetry.ServeDebug("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr.SetDebugAddr(addr.String())
	base := "http://" + addr.String()

	e := goldenMLineCampaign()
	e.Name = "obs-smoke"
	e.Programs = 2
	e.Parallel = 2
	e.Trace = tr
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments == 0 {
		t.Fatal("smoke campaign ran no experiments")
	}
	// -debug-addr=:0 support: the bound address flows into the result.
	if res.DebugAddr != addr.String() {
		t.Errorf("Result.DebugAddr = %q, want %q", res.DebugAddr, addr.String())
	}

	// /metrics: the families the campaign must have populated.
	body := httpGet(t, base+"/metrics")
	for _, family := range []string{
		"# TYPE scamv_experiments_total counter",
		"# TYPE scamv_solver_queries_total counter",
		"# TYPE scamv_query_duration_seconds histogram",
		"# TYPE scamv_stage_duration_seconds histogram",
		"# TYPE scamv_stage_stall_seconds_total counter",
		"# TYPE scamv_flight_events_total counter",
		"scamv_query_duration_seconds_bucket{le=\"+Inf\"}",
		"scamv_stage_busy_seconds_total{stage=\"testgen\"}",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if strings.Contains(body, "scamv_experiments_total 0\n") {
		t.Error("/metrics shows zero experiments after the campaign")
	}

	// Live dashboard page.
	page := httpGet(t, base+"/debug/scamv/live")
	if !strings.Contains(page, "scamv campaign observatory") {
		t.Error("live page did not serve")
	}

	// One SSE tick with real campaign aggregates in it.
	resp, err := http.Get(base + "/debug/scamv/events?interval_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var tick struct {
		Experiments int64 `json:"experiments"`
		Pipeline    []struct {
			Name string `json:"name"`
		} `json:"pipeline"`
	}
	got := false
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &tick); err != nil {
				t.Fatalf("SSE tick is not JSON: %v", err)
			}
			got = true
			break
		}
	}
	resp.Body.Close()
	if !got {
		t.Fatal("no SSE tick received")
	}
	if tick.Experiments != int64(res.Experiments) {
		t.Errorf("SSE tick experiments = %d, want %d", tick.Experiments, res.Experiments)
	}
	if len(tick.Pipeline) == 0 {
		t.Error("SSE tick has no live pipeline stages (staged engine source not registered?)")
	}

	// Force one anomaly capture through the debug endpoint and check the
	// bundle: ring snapshot in trace format plus a goroutine dump.
	resp, err = http.Post(base+"/debug/scamv/flight?reason=smoke-test", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cap struct {
		Bundle string `json:"bundle"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cap)
	resp.Body.Close()
	if err != nil || cap.Error != "" || cap.Bundle == "" {
		t.Fatalf("forced capture failed: %+v (err %v)", cap, err)
	}
	recs, err := telemetry.LoadTrace(filepath.Join(cap.Bundle, "ring.jsonl"))
	if err != nil {
		t.Fatalf("bundle ring does not load as a trace: %v", err)
	}
	if len(recs) == 0 {
		t.Error("bundle ring is empty after a campaign")
	}
	dump, err := os.ReadFile(filepath.Join(cap.Bundle, "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "goroutine") {
		t.Error("bundle goroutine dump looks wrong")
	}
	if _, err := os.Stat(filepath.Join(cap.Bundle, "counters.json")); err != nil {
		t.Error(err)
	}

	// Flight status reflects the capture.
	var st telemetry.FlightStatus
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/scamv/flight")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Captures == 0 || st.Events == 0 {
		t.Errorf("flight status after capture = %+v", st)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestObservatoryTornTrace covers the -report satellite at the library
// level: a campaign trace with a torn final line still loads tolerantly
// with the torn line counted.
func TestObservatoryTornTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := telemetry.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	e := goldenMLineCampaign()
	e.Name = "torn-smoke"
	e.Programs = 2
	e.Trace = tr
	if _, err := Run(e); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := telemetry.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final line mid-record, as a kill -9 during append would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.LoadTrace(path); err == nil {
		t.Fatal("strict loader accepted the torn trace")
	}
	recs, torn, err := telemetry.LoadTraceTolerant(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 || len(recs) != len(full)-1 {
		t.Errorf("tolerant load: %d records %d torn, want %d records 1 torn",
			len(recs), torn, len(full)-1)
	}
}
