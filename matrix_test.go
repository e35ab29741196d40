package scamv

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// matrixCampaign is the small deterministic matrix campaign the matrix tests
// share: the golden MLine generation config (default microarchitecture, no
// noise) swept over the three headline platforms.
func matrixCampaign(t *testing.T) Experiment {
	t.Helper()
	e := goldenMLineCampaign()
	e.Name = "matrix-mct"
	e.Programs = 2
	e.TestsPerProgram = 8
	specs, err := PlatformsFromPresets("a53", "a72", "m0")
	if err != nil {
		t.Fatal(err)
	}
	e.Platforms = specs
	return e
}

// platformCounts strips the wall-clock field from a matrix row so runs can be
// compared on the deterministic part.
func platformCounts(r PlatformResult) PlatformResult {
	r.ExeTime = 0
	return r
}

// TestMatrixPrimaryRowMatchesSinglePlatform is the backward-compatibility
// anchor of the matrix driver: a matrix whose first platform is the default
// A53-like core must reproduce the equivalent single-platform campaign — the
// top-level counts AND the a53 row, seed for seed. The a53 preset IS
// DefaultConfig (TestPresetA53IsDefault), so the single campaign below runs
// the identical simulated machine.
func TestMatrixPrimaryRowMatchesSinglePlatform(t *testing.T) {
	single := matrixCampaign(t)
	single.Platforms = nil
	rs, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(matrixCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Experiments != rm.Experiments || rs.Counterexamples != rm.Counterexamples ||
		rs.Inconclusive != rm.Inconclusive || rs.Programs != rm.Programs ||
		rs.ProgramsWithCounter != rm.ProgramsWithCounter || rs.Queries != rm.Queries ||
		rs.Found != rm.Found || rs.FirstCEProgram != rm.FirstCEProgram || rs.FirstCETest != rm.FirstCETest {
		t.Errorf("matrix top-level counts diverge from the single-platform campaign:\nsingle %+v\nmatrix %+v", rs, rm)
	}
	if len(rm.Matrix) != 3 {
		t.Fatalf("expected 3 matrix rows, got %d", len(rm.Matrix))
	}
	a53 := rm.Matrix[0]
	if a53.Platform != "a53" {
		t.Fatalf("row 0 = %q, want a53", a53.Platform)
	}
	if a53.Experiments != rs.Experiments || a53.Counterexamples != rs.Counterexamples ||
		a53.Inconclusive != rs.Inconclusive || a53.Found != rs.Found ||
		a53.FirstCEProgram != rs.FirstCEProgram || a53.FirstCETest != rs.FirstCETest {
		t.Errorf("a53 row diverges from the single-platform campaign:\nsingle %+v\nrow    %+v", rs, a53)
	}
	// Every platform executed the same generated suite.
	for _, row := range rm.Matrix {
		if row.Experiments != rs.Experiments || row.SkippedTests != 0 {
			t.Errorf("platform %s executed %d tests (%d skipped), want %d",
				row.Platform, row.Experiments, row.SkippedTests, rs.Experiments)
		}
	}
	if len(rs.Matrix) != 0 {
		t.Error("single-platform campaign must not report matrix rows")
	}
}

// TestMatrixGolden pins the rendered soundness table to a committed golden
// file: run-to-run byte identity per seed is the matrix campaign's
// determinism contract. Regenerate with UPDATE_MATRIX_GOLDEN=1.
func TestMatrixGolden(t *testing.T) {
	r1, err := Run(matrixCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(matrixCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	got := FormatMatrix(r1)
	if again := FormatMatrix(r2); got != again {
		t.Fatalf("matrix rendering not byte-identical across runs:\n--- run 1\n%s--- run 2\n%s", got, again)
	}
	for i := range r1.Matrix {
		if platformCounts(r1.Matrix[i]) != platformCounts(r2.Matrix[i]) {
			t.Errorf("row %d counts differ across runs:\n%+v\n%+v", i, r1.Matrix[i], r2.Matrix[i])
		}
	}
	golden := filepath.Join("testdata", "matrix_golden.txt")
	if os.Getenv("UPDATE_MATRIX_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_MATRIX_GOLDEN=1 go test -run TestMatrixGolden)", err)
	}
	if got != string(want) {
		t.Errorf("matrix table drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestMatrixParallelInvariant: the batch loop lives in the Execute stage
// body, so stage overlap must not change any matrix row.
func TestMatrixParallelInvariant(t *testing.T) {
	seq := matrixCampaign(t)
	seq.Parallel = 1
	r1, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	par := matrixCampaign(t)
	par.Parallel = 4
	r4, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Matrix) != len(r4.Matrix) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Matrix), len(r4.Matrix))
	}
	for i := range r1.Matrix {
		if platformCounts(r1.Matrix[i]) != platformCounts(r4.Matrix[i]) {
			t.Errorf("row %d diverges:\nparallel=1 %+v\nparallel=4 %+v", i, r1.Matrix[i], r4.Matrix[i])
		}
	}
}

// TestMatrixLogAndTelemetry: every executed test contributes one log record
// and one telemetry "platform" record per platform, records carry the
// platform name, and the tracer aggregates per-platform counts.
func TestMatrixLogAndTelemetry(t *testing.T) {
	var logBuf, traceBuf bytes.Buffer
	e := matrixCampaign(t)
	e.Log = logdb.NewWriter(&logBuf)
	tr := telemetry.New(&traceBuf)
	e.Trace = tr
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := logdb.Read(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perPlatform := map[string]int{}
	for _, rec := range recs {
		if rec.Platform == "" {
			t.Fatalf("matrix log record without platform: %+v", rec)
		}
		perPlatform[rec.Platform]++
	}
	for _, row := range r.Matrix {
		if perPlatform[row.Platform] != row.Experiments {
			t.Errorf("platform %s: %d log records, want %d",
				row.Platform, perPlatform[row.Platform], row.Experiments)
		}
	}

	trecs, err := telemetry.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	platRecs := map[string]int{}
	for _, rec := range trecs {
		if rec.Kind == "platform" {
			if rec.V != telemetry.SchemaVersion {
				t.Fatalf("platform record at schema v%d, want v%d", rec.V, telemetry.SchemaVersion)
			}
			platRecs[rec.Name]++
		}
	}
	for _, row := range r.Matrix {
		if platRecs[row.Platform] != row.Experiments {
			t.Errorf("platform %s: %d trace records, want %d",
				row.Platform, platRecs[row.Platform], row.Experiments)
		}
	}
	snap := tr.Snapshot()
	if len(snap.Platforms) != len(r.Matrix) {
		t.Fatalf("tracer aggregated %d platforms, want %d", len(snap.Platforms), len(r.Matrix))
	}
	for _, pc := range snap.Platforms {
		for _, row := range r.Matrix {
			if row.Platform == pc.Name && (int(pc.Experiments) != row.Experiments ||
				int(pc.Counterexamples) != row.Counterexamples) {
				t.Errorf("tracer aggregate for %s = %+v, result row = %+v", pc.Name, pc, row)
			}
		}
	}
}

// TestMatrixSinglePlatformLogUnchanged: a single-platform campaign's log
// records must not grow a platform field (byte-compatibility of existing
// logs and their consumers).
func TestMatrixSinglePlatformLogUnchanged(t *testing.T) {
	var buf bytes.Buffer
	e := matrixCampaign(t)
	e.Platforms = nil
	e.Log = logdb.NewWriter(&buf)
	if _, err := Run(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if _, has := m["platform"]; has {
			t.Fatalf("single-platform record leaked a platform field: %s", line)
		}
	}
}

// TestMatrixValidation: matrix platform lists with empty or duplicate names
// are rejected before any work runs.
func TestMatrixValidation(t *testing.T) {
	e := matrixCampaign(t)
	e.Platforms[1].Name = ""
	if _, err := Run(e); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Errorf("unnamed platform: err = %v", err)
	}
	e = matrixCampaign(t)
	e.Platforms[2].Name = e.Platforms[0].Name
	if _, err := Run(e); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate platform: err = %v", err)
	}
	if _, err := PlatformsFromPresets("a53", "not-a-core"); err == nil {
		t.Error("unknown preset name must error")
	}
}

// TestFormatTableRendersMatrix: FormatTable appends the per-platform block
// for matrix results and the platform verdict column renders sound/unsound.
func TestFormatTableRendersMatrix(t *testing.T) {
	r, err := Run(matrixCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable(r)
	for _, want := range []string{"matrix[matrix-mct]", "platform", "verdict", "a53", "a72", "m0"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable missing %q:\n%s", want, out)
		}
	}
	empty := &PlatformResult{Platform: "x"}
	if empty.Verdict() != "no-data" {
		t.Errorf("empty row verdict = %q", empty.Verdict())
	}
	unsound := &PlatformResult{Platform: "x", Experiments: 3, Counterexamples: 1}
	if unsound.Verdict() != "unsound" {
		t.Errorf("unsound row verdict = %q", unsound.Verdict())
	}
	sound := &PlatformResult{Platform: "x", Experiments: 3}
	if sound.Verdict() != "sound" {
		t.Errorf("sound row verdict = %q", sound.Verdict())
	}
}
