package scamv

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§6, Table 1 and the Fig. 7 table), plus ablation benchmarks
// for the design choices called out in DESIGN.md §5.
//
// Campaign benchmarks run a reduced-scale campaign per iteration and report
// the paper's metrics as custom benchmark outputs:
//
//	cex/exp           counterexample fraction (refined campaign)
//	cex-unguided/exp  counterexample fraction (unguided baseline)
//	progs-cex         fraction of programs with ≥ 1 counterexample
//	ttc-ms            wall-clock time to first counterexample
//
// Absolute times are not comparable with the paper (simulator vs. 4
// Raspberry Pi boards over 7 days); the SHAPE — who finds counterexamples
// and by what factor — is the reproduction target. EXPERIMENTS.md records
// paper-vs-measured for every row.

import (
	"math/rand"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/attack"
	"scamv/internal/core"
	"scamv/internal/expr"
	"scamv/internal/gen"
	"scamv/internal/micro"
	"scamv/internal/obs"
	"scamv/internal/sat"
	"scamv/internal/smt"
	"scamv/internal/symexec"
)

func reportCampaign(b *testing.B, unguided, refined *Result) {
	b.Helper()
	if refined != nil && refined.Experiments > 0 {
		b.ReportMetric(float64(refined.Counterexamples)/float64(refined.Experiments), "cex/exp")
		b.ReportMetric(float64(refined.ProgramsWithCounter)/float64(refined.Programs), "progs-cex")
		if refined.Found {
			b.ReportMetric(float64(refined.TTC.Milliseconds()), "ttc-ms")
		}
	}
	if unguided != nil && unguided.Experiments > 0 {
		b.ReportMetric(float64(unguided.Counterexamples)/float64(unguided.Experiments), "cex-unguided/exp")
	}
}

func runPair(b *testing.B, unguided, refined Experiment) {
	b.Helper()
	var ru, rr *Result
	var err error
	for i := 0; i < b.N; i++ {
		ru, err = Run(unguided)
		if err != nil {
			b.Fatal(err)
		}
		rr, err = Run(refined)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, ru, rr)
}

// BenchmarkTable1_MPart reproduces Table 1 columns 1–2: M_part vs the
// M_part' refinement on the Stride template, AR = sets 61..127.
func BenchmarkTable1_MPart(b *testing.B) {
	u, r := MPartExperiments(false, 12, 40, 2021)
	runPair(b, u, r)
}

// BenchmarkTable1_MPartPageAligned reproduces Table 1 columns 3–4: the
// page-aligned partition, where prefetching stops at the page boundary and
// no counterexamples exist.
func BenchmarkTable1_MPartPageAligned(b *testing.B) {
	u, r := MPartExperiments(true, 8, 40, 2021)
	runPair(b, u, r)
}

// BenchmarkTable1_MCtTemplateA reproduces Table 1 columns 5–6: M_ct vs the
// M_spec refinement on Template A (the SiSCloak shape).
func BenchmarkTable1_MCtTemplateA(b *testing.B) {
	u, r := MCtExperiments(gen.TemplateA{}, 10, 30, 2021)
	runPair(b, u, r)
}

// BenchmarkTable1_MCtTemplateB reproduces Table 1 columns 7–8: M_ct vs
// M_spec on the general Template B.
func BenchmarkTable1_MCtTemplateB(b *testing.B) {
	u, r := MCtExperiments(gen.TemplateB{}, 12, 30, 2021)
	runPair(b, u, r)
}

// BenchmarkFig7_MCtTemplateC reproduces Fig. 7 columns 1–2: M_ct on
// Template C (causally dependent double loads).
func BenchmarkFig7_MCtTemplateC(b *testing.B) {
	u, r := MCtExperiments(gen.TemplateC{}, 4, 100, 2021)
	runPair(b, u, r)
}

// BenchmarkFig7_MSpec1TemplateC reproduces Fig. 7 column 3: M_spec1 on
// Template C is consistent with the hardware (no Spectre-PHT on the A53).
func BenchmarkFig7_MSpec1TemplateC(b *testing.B) {
	e := MSpec1Experiment(gen.TemplateC{}, 4, 100, 2021)
	var r *Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = Run(e); err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, nil, r)
	if r.Counterexamples != 0 {
		b.Fatalf("Mspec1/Template C should hold, found %d counterexamples", r.Counterexamples)
	}
}

// BenchmarkFig7_MSpec1TemplateB reproduces Fig. 7 column 4: M_spec1 on
// Template B is invalidated by causally independent double transient loads.
func BenchmarkFig7_MSpec1TemplateB(b *testing.B) {
	e := MSpec1Experiment(gen.TemplateB{}, 12, 30, 2021)
	var r *Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = Run(e); err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, nil, r)
}

// BenchmarkFig7_MCtTemplateD reproduces Fig. 7 column 5: straight-line
// speculation after direct unconditional branches does not occur (M_spec'
// finds no counterexamples).
func BenchmarkFig7_MCtTemplateD(b *testing.B) {
	e := StraightLineExperiment(10, 40, 2021)
	var r *Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = Run(e); err != nil {
			b.Fatal(err)
		}
	}
	reportCampaign(b, nil, r)
	if r.Counterexamples != 0 {
		b.Fatalf("straight-line speculation observed: %d", r.Counterexamples)
	}
}

// BenchmarkFig6_SiSCloak reproduces the §6.4 end-to-end attack: Flush+Reload
// recovery of the secret through the single speculative load of Fig. 6.
func BenchmarkFig6_SiSCloak(b *testing.B) {
	const (
		arrayA = 0x10000
		arrayB = 0x20000
	)
	secretLine := 37
	mem := expr.NewMemModel(0)
	mem.Set(arrayA+16, uint64(secretLine)*64)
	train := map[string]uint64{"x0": 0, "x1": 8, "x5": arrayA, "x7": arrayB}
	attackRegs := map[string]uint64{"x0": 16, "x1": 8, "x5": arrayA, "x7": arrayB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := attack.NewRunner(gen.SiSCloak1(), mem, attack.DefaultConfig())
		line, err := r.RecoverLine(train, attackRegs, arrayB, 4)
		if err != nil {
			b.Fatal(err)
		}
		if line != secretLine {
			b.Fatalf("recovered %d, want %d", line, secretLine)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

// BenchmarkAblation_SolverPhase compares model diversification settings:
// the zero default phase (Z3-like minimal models) against heavy random
// phases. Random phases make even the unguided baseline stumble on
// counterexamples — which is exactly the behaviour the refinement technique
// replaces with guidance.
func BenchmarkAblation_SolverPhase(b *testing.B) {
	for _, cfg := range []struct {
		name string
		prob float64
	}{{"zero-phase", 0}, {"random-phase", 0.5}} {
		b.Run(cfg.name, func(b *testing.B) {
			u, _ := MCtExperiments(gen.TemplateA{}, 8, 25, 2021)
			u.RandomPhaseProb = cfg.prob
			var r *Result
			var err error
			for i := 0; i < b.N; i++ {
				if r, err = Run(u); err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, r, nil)
		})
	}
}

// BenchmarkAblation_PathPairSplit compares the per-path-pair relation
// splitting of §5.4 against solving the monolithic Eq. 1 relation.
func BenchmarkAblation_PathPairSplit(b *testing.B) {
	prog := gen.SiSCloak1()
	pl, err := NewPipeline(prog, &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pair-split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := core.NewGenerator(pl.Paths, core.Config{
				Seed: int64(i), Refined: true, Registers: pl.Registers,
			})
			for t := 0; t < 10; t++ {
				if _, ok := g.Next(); !ok {
					break
				}
			}
		}
	})
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := smt.New(smt.Options{Seed: int64(i)})
			s.Assert(core.MonolithicRelation(pl.Paths, true))
			for t := 0; t < 10; t++ {
				if s.Check() != sat.Sat {
					break
				}
				if !s.BlockVars(s.VarNames()) {
					break
				}
			}
		}
	})
}

// BenchmarkAblation_IncrementalSolver measures the shared-prefix
// incremental generator (one solver per path pair + slot,
// activation-literal class scopes) on an MLine-support program: 20 test
// cases per iteration.
func BenchmarkAblation_IncrementalSolver(b *testing.B) {
	r := rand.New(rand.NewSource(2021))
	tpl := gen.Sequence{Parts: []gen.Template{gen.TemplateA{}, gen.TemplateA{}, gen.TemplateA{}}}
	prog := tpl.Generate(r, 0)
	pl, err := NewPipeline(prog, &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := core.NewGenerator(pl.Paths, core.Config{
				Seed: int64(i), Refined: true, Registers: pl.Registers,
				Support: obs.MLine{Geom: obs.DefaultGeometry},
			})
			for t := 0; t < 20; t++ {
				if _, ok := g.Next(); !ok {
					break
				}
			}
		}
	})
}

// BenchmarkAblation_Projection compares the single tagged instrumentation
// pass of §5.1 (symbolic execution runs once) against the naive approach of
// instrumenting and symbolically executing twice, once per model.
func BenchmarkAblation_Projection(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	progs := make([]*arm.Program, 20)
	for i := range progs {
		progs[i] = gen.TemplateA{}.Generate(r, i)
	}
	b.Run("single-pass-tagged", func(b *testing.B) {
		m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
		for i := 0; i < b.N; i++ {
			p := progs[i%len(progs)]
			if _, err := NewPipeline(p, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-passes", func(b *testing.B) {
		m1 := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone}
		m2 := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
		for i := 0; i < b.N; i++ {
			p := progs[i%len(progs)]
			if _, err := NewPipeline(p, m1); err != nil {
				b.Fatal(err)
			}
			if _, err := NewPipeline(p, m2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SpecWindow varies the core's speculation window: with
// window 0 (no speculation) the M_ct refinement finds nothing; the leak
// appears as soon as one transient load fits.
func BenchmarkAblation_SpecWindow(b *testing.B) {
	for _, w := range []int{0, 4, 16} {
		b.Run(windowName(w), func(b *testing.B) {
			_, r := MCtExperiments(gen.TemplateA{}, 6, 20, 2021)
			r.Micro.SpecWindow = w
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = Run(r); err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, nil, res)
			if w == 0 && res.Counterexamples != 0 {
				b.Fatal("no-speculation core cannot leak transiently")
			}
		})
	}
}

// BenchmarkAblation_Prefetcher disables the stride prefetcher: the M_part
// counterexamples must vanish, isolating the prefetcher as the leak's cause.
func BenchmarkAblation_Prefetcher(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "prefetch-on"
		if disabled {
			name = "prefetch-off"
		}
		b.Run(name, func(b *testing.B) {
			_, r := MPartExperiments(false, 10, 40, 2021)
			r.Micro.PrefetchDisabled = disabled
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = Run(r); err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, nil, res)
			if disabled && res.Counterexamples != 0 {
				b.Fatal("counterexamples without a prefetcher")
			}
		})
	}
}

// BenchmarkAblation_TransientForwarding turns on transient load forwarding
// (an out-of-order-like core): the dependent second load of Template C then
// issues, so M_spec1 — sound for the A53 — becomes unsound.
func BenchmarkAblation_TransientForwarding(b *testing.B) {
	for _, fwd := range []bool{false, true} {
		name := "a53-no-forwarding"
		if fwd {
			name = "forwarding-core"
		}
		b.Run(name, func(b *testing.B) {
			e := MSpec1Experiment(gen.TemplateC{}, 3, 60, 2021)
			e.Micro.ForwardTransientLoads = fwd
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = Run(e); err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, nil, res)
			if !fwd && res.Counterexamples != 0 {
				b.Fatal("Mspec1 must hold on the non-forwarding core")
			}
			if fwd && res.Counterexamples == 0 {
				b.Fatal("Mspec1 must break on a forwarding core")
			}
		})
	}
}

func windowName(w int) string {
	switch w {
	case 0:
		return "window-0"
	case 4:
		return "window-4"
	default:
		return "window-16"
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkSolverRelation measures one solver query over a Template A
// refinement relation (the pipeline's dominant cost).
func BenchmarkSolverRelation(b *testing.B) {
	pl, err := NewPipeline(gen.SiSCloak1(), &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll})
	if err != nil {
		b.Fatal(err)
	}
	var pa *symexec.Path
	for _, p := range pl.Paths {
		if len(p.RefinedObs()) > 0 {
			pa = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := smt.New(smt.Options{Seed: int64(i)})
		s.Assert(core.PairRelation(pa, pa, true))
		if s.Check() != sat.Sat {
			b.Fatal("relation must be satisfiable")
		}
	}
}

// BenchmarkSymexec measures symbolic execution of an instrumented program.
func BenchmarkSymexec(b *testing.B) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	r := rand.New(rand.NewSource(1))
	prog := gen.TemplateB{}.Generate(r, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPipeline(prog, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroRun measures one simulated victim execution including
// predictor training.
func BenchmarkMicroRun(b *testing.B) {
	prog := gen.SiSCloak1()
	mem := expr.NewMemModel(0)
	regs := map[string]uint64{"x0": 16, "x1": 8, "x5": 0x10000, "x7": 0x20000}
	m := micro.New(micro.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.LoadState(regs, mem); err != nil {
			b.Fatal(err)
		}
		m.ResetMicro()
		if err := m.Run(prog, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExt_VarTimeMul runs the extension experiment for the
// variable-time arithmetic channel of the paper's §3 illustration: M_ct vs
// the M_time refinement on a core with an early-terminating multiplier and
// a timing attacker.
func BenchmarkExt_VarTimeMul(b *testing.B) {
	u, r := MTimeExperiments(8, 15, 2021)
	runPair(b, u, r)
}

// BenchmarkAblation_Replacement swaps the cache replacement policy: the
// campaign outcomes are insensitive to it (the leaks live in prefetcher and
// speculation behaviour, not in eviction order), which justifies using the
// deterministic LRU instead of the A53's pseudo-random policy.
func BenchmarkAblation_Replacement(b *testing.B) {
	for _, pol := range []micro.Replacement{micro.LRU, micro.RoundRobin, micro.PseudoRandom} {
		b.Run(pol.String(), func(b *testing.B) {
			_, r := MCtExperiments(gen.TemplateA{}, 6, 20, 2021)
			r.Micro.Replacement = pol
			r.Micro.ReplacementSeed = 99
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = Run(r); err != nil {
					b.Fatal(err)
				}
			}
			reportCampaign(b, nil, res)
			if res.Counterexamples == 0 {
				b.Fatal("the speculative leak must survive any replacement policy")
			}
		})
	}
}

// BenchmarkExt_PCModel validates the program-counter security model against
// the data-cache channel: unsound on any machine with a data cache, exposed
// only under refinement.
func BenchmarkExt_PCModel(b *testing.B) {
	u, r := MPCModelExperiments(8, 15, 2021)
	runPair(b, u, r)
}
