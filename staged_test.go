package scamv

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/gen"
	"scamv/internal/obs"
)

// goldenMLineCampaign is the pinned MLine campaign: 8 symbolic paths
// (TemplateA composed three times), 128 coverage classes, refinement on —
// the configuration whose per-(pair × class × slot) solver cost the
// shared-prefix incremental solver targets.
func goldenMLineCampaign() Experiment {
	return Experiment{
		Name:            "bench-gen-mline",
		Template:        gen.Sequence{Parts: []gen.Template{gen.TemplateA{}, gen.TemplateA{}, gen.TemplateA{}}},
		Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll},
		Refined:         true,
		Support:         obs.MLine{Geom: obs.DefaultGeometry},
		Programs:        3,
		TestsPerProgram: 40,
		Seed:            2021,
		MaxConflicts:    200000,
	}
}

// stagedGolden is the golden MLine campaign's verdict summary, pinned in
// testdata/staged_golden.json.
type stagedGolden struct {
	Programs            int  `json:"programs"`
	ProgramsWithCounter int  `json:"programs_with_counter"`
	Experiments         int  `json:"experiments"`
	Counterexamples     int  `json:"counterexamples"`
	Inconclusive        int  `json:"inconclusive"`
	Queries             int  `json:"queries"`
	EncodeFallbacks     int  `json:"encode_fallbacks"`
	Found               bool `json:"found"`
	FirstCEProgram      int  `json:"first_ce_program"`
	FirstCETest         int  `json:"first_ce_test"`
}

func stagedGoldenOf(r *Result) stagedGolden {
	return stagedGolden{
		Programs:            r.Programs,
		ProgramsWithCounter: r.ProgramsWithCounter,
		Experiments:         r.Experiments,
		Counterexamples:     r.Counterexamples,
		Inconclusive:        r.Inconclusive,
		Queries:             r.Queries,
		EncodeFallbacks:     r.EncodeFallbacks,
		Found:               r.Found,
		FirstCEProgram:      r.FirstCEProgram,
		FirstCETest:         r.FirstCETest,
	}
}

// TestStagedGoldenParallelInvariant pins the golden MLine campaign's
// counts and first-counterexample index to testdata/staged_golden.json and
// requires Parallel 1, 2 and 4 to reproduce it exactly: stage overlap
// changes cost, never verdicts. Regenerate with UPDATE_STAGED_GOLDEN=1 (and
// say why in CHANGES.md — the default path is meant to stay byte-identical).
func TestStagedGoldenParallelInvariant(t *testing.T) {
	const path = "testdata/staged_golden.json"
	base := goldenMLineCampaign()
	base.Programs = 2
	if os.Getenv("UPDATE_STAGED_GOLDEN") != "" {
		r, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(stagedGoldenOf(r), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_STAGED_GOLDEN=1 go test -run TestStagedGolden)", err)
	}
	var want stagedGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4} {
		e := base
		e.Parallel = parallel
		r, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := stagedGoldenOf(r); got != want {
			t.Errorf("parallel=%d: campaign diverges from the golden:\ngot  %+v\nwant %+v", parallel, got, want)
		}
		if len(r.Stages) == 0 {
			t.Errorf("parallel=%d: staged engine must report stage metrics", parallel)
		}
	}
}

// TestStagesPopulated checks the metrics spine: every pipeline stage
// appears in order, item counts balance, and FormatTable renders the block.
func TestStagesPopulated(t *testing.T) {
	_, refined := MCtExperiments(gen.TemplateA{}, 4, 6, 11)
	refined.Parallel = 3
	r, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"proggen", "encode", "prepare", "testgen", "execute", "collect"}
	if len(r.Stages) != len(want) {
		t.Fatalf("stages: %+v", r.Stages)
	}
	for i, name := range want {
		s := r.Stages[i]
		if s.Name != name {
			t.Fatalf("stage %d = %q, want %q", i, s.Name, name)
		}
		if s.Out != int64(r.Programs) {
			t.Errorf("stage %s emitted %d items, want %d", name, s.Out, r.Programs)
		}
		if s.Skipped != 0 || s.Failed != 0 {
			t.Errorf("stage %s: unexpected skips/failures: %+v", name, s)
		}
	}
	// The heavy stages must account for real work.
	for _, i := range []int{3, 4} {
		if r.Stages[i].Busy <= 0 {
			t.Errorf("stage %s reports no busy time", r.Stages[i].Name)
		}
	}
	out := FormatTable(r)
	for _, wantStr := range []string{"stages[", "proggen", "testgen", "execute", "busy", "wait", "First c.e."} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("FormatTable missing %q:\n%s", wantStr, out)
		}
	}
}

// TestRunContextCancelled: a cancelled context aborts the campaign with the
// context's error instead of a partial result.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, refined := MCtExperiments(gen.TemplateA{}, 8, 10, 11)
	if _, err := RunContext(ctx, refined); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNoiseSeedNoCollisions is the regression test for the additive
// noise-seed scheme: the old derivation seed^0x5eed + p*100000 + t*100
// collided exactly once TestsPerProgram reached 1000 ((p, t+1000) and
// (p+1, t) shared a seed); the splitmix64 derivation must keep every
// (program, test) stream distinct across a realistic campaign envelope.
func TestNoiseSeedNoCollisions(t *testing.T) {
	const seed, programs, tests = 2021, 128, 2048
	oldScheme := func(p, t int) int64 { return seed ^ 0x5eed + int64(p)*100000 + int64(t)*100 }
	if oldScheme(0, 1000) != oldScheme(1, 0) {
		t.Fatal("collision premise gone: the old scheme should collide at t=1000")
	}
	seen := make(map[int64][2]int, programs*tests)
	for p := 0; p < programs; p++ {
		for tc := 0; tc < tests; tc++ {
			s := noiseSeed(seed, p, tc)
			if prev, dup := seen[s]; dup {
				t.Fatalf("noiseSeed collision: (p%d,t%d) and (p%d,t%d) share %#x",
					prev[0], prev[1], p, tc, s)
			}
			seen[s] = [2]int{p, tc}
		}
	}
	// Repetition offsets (±2*Repeats around the base) must not alias the
	// base seeds of neighbouring tests either.
	for tc := 0; tc < 100; tc++ {
		base := noiseSeed(seed, 0, tc)
		for rep := int64(1); rep <= 20; rep++ {
			if _, dup := seen[base+rep]; dup {
				t.Fatalf("repetition stream of t%d aliases another test's base seed", tc)
			}
		}
	}
}

// TestFirstCounterexampleDeterministic: the (program, test) index of the
// first counterexample must be identical across runs and Parallel settings,
// unlike the wall-clock TTC.
func TestFirstCounterexampleDeterministic(t *testing.T) {
	_, refined := MCtExperiments(gen.TemplateA{}, 6, 8, 17)
	seq, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Found {
		t.Fatal("refined Template A campaign must find a counterexample")
	}
	par := refined
	par.Parallel = 4
	pr, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if seq.FirstCEProgram != pr.FirstCEProgram || seq.FirstCETest != pr.FirstCETest {
		t.Errorf("first-counterexample index not deterministic: p%d/t%d vs p%d/t%d",
			seq.FirstCEProgram, seq.FirstCETest, pr.FirstCEProgram, pr.FirstCETest)
	}
	if seq.FirstCEProgram < 0 || seq.FirstCETest < 0 {
		t.Errorf("found campaign must have a non-negative index, got p%d/t%d",
			seq.FirstCEProgram, seq.FirstCETest)
	}
	if !strings.Contains(seq.Summary(), "first counterexample at p") {
		t.Errorf("summary missing the index: %s", seq.Summary())
	}
	// Unfound campaigns render "-" instead of an index.
	unfound := &Result{FirstCEProgram: -1, FirstCETest: -1}
	if strings.Contains(FormatTable(unfound), "p-1") {
		t.Error("unfound campaign must render '-' for the first-c.e. cell")
	}
}

// countingTemplate counts Generate calls of the wrapped template.
type countingTemplate struct {
	gen.Template
	calls atomic.Int64
}

func (c *countingTemplate) Generate(r *rand.Rand, idx int) *arm.Program {
	c.calls.Add(1)
	return c.Template.Generate(r, idx)
}

// TestRemovedModesRejected: each removed solving-mode sentinel makes
// RunContext fail with an error naming the field, before any program is
// generated.
func TestRemovedModesRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Experiment)
	}{
		{"LegacySolver", func(e *Experiment) { e.LegacySolver = true }},
		{"Portfolio", func(e *Experiment) { e.Portfolio = 2 }},
		{"SharedCache", func(e *Experiment) { e.SharedCache = true }},
		{"Monolithic", func(e *Experiment) { e.Monolithic = true }},
	} {
		_, refined := MCtExperiments(gen.TemplateA{}, 2, 2, 11)
		tpl := &countingTemplate{Template: refined.Template}
		refined.Template = tpl
		tc.set(&refined)
		_, err := Run(refined)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s set: err = %v, want an error naming the field", tc.field, err)
		}
		if n := tpl.calls.Load(); n != 0 {
			t.Errorf("%s set: %d programs generated before the error", tc.field, n)
		}
	}
}

// TestFingerprintOmitsRemovedModes: the resume fingerprint no longer
// carries the removed solving-mode keys.
func TestFingerprintOmitsRemovedModes(t *testing.T) {
	base := goldenMLineCampaign()
	e := base.WithDefaults()
	fp := journalFingerprint(&e)
	for _, key := range []string{"legacy_solver", "portfolio", "shared_cache"} {
		if strings.Contains(fp, `"`+key+`"`) {
			t.Errorf("fingerprint still carries %q: %s", key, fp)
		}
	}
}
