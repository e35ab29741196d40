// Chaos tests live in an external test package: internal/faultinject imports
// scamv (it wraps scamv.Platform), so an in-package test would be an import
// cycle.
package scamv_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"scamv"
	"scamv/internal/faultinject"
	"scamv/internal/resilient"
)

// golden strips a Result to its seed-deterministic fields: everything except
// wall-clock durations and the scheduling-dependent TTC.
type golden struct {
	Programs            int
	ProgramsWithCounter int
	Experiments         int
	Counterexamples     int
	Inconclusive        int
	Found               bool
	FirstCEProgram      int
	FirstCETest         int
	SkippedTests        int
	QuarantinedPrograms int
	Skips               []scamv.Skip
	Retries             int
	BreakerTrips        uint64
}

func goldenOf(r *scamv.Result) golden {
	return golden{
		Programs:            r.Programs,
		ProgramsWithCounter: r.ProgramsWithCounter,
		Experiments:         r.Experiments,
		Counterexamples:     r.Counterexamples,
		Inconclusive:        r.Inconclusive,
		Found:               r.Found,
		FirstCEProgram:      r.FirstCEProgram,
		FirstCETest:         r.FirstCETest,
		SkippedTests:        r.SkippedTests,
		QuarantinedPrograms: r.QuarantinedPrograms,
		Skips:               r.Skips,
		Retries:             r.Retries,
		BreakerTrips:        r.BreakerTrips,
	}
}

// chaosExperiment builds a small Mpart campaign under the heavy chaos
// profile with FailPolicy Degrade. The fault injector is rebuilt per call:
// its per-identity attempt counters are run-local state, and sharing one
// injector across runs would advance the schedule.
func chaosExperiment(parallel int) scamv.Experiment {
	u, _ := scamv.MPartExperiments(false, 5, 6, 2021)
	u.Repeats = 2
	u.Parallel = parallel
	u.FailPolicy = scamv.Degrade
	u.Retries = 2
	prof, err := faultinject.Named("heavy")
	if err != nil {
		panic(err)
	}
	u.Platform = faultinject.New(nil, prof, 2021)
	return u
}

// TestChaosGoldenDeterministic pins the resilience contract: the same seed
// and chaos profile produce the same degraded Result — across repeat runs
// and across Parallel settings — and the heavy profile actually degrades
// something, so the equality is not vacuous.
func TestChaosGoldenDeterministic(t *testing.T) {
	staged1, err := scamv.Run(chaosExperiment(4))
	if err != nil {
		t.Fatalf("chaos campaign failed under Degrade: %v", err)
	}
	staged2, err := scamv.Run(chaosExperiment(4))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := scamv.Run(chaosExperiment(1))
	if err != nil {
		t.Fatalf("sequential chaos campaign failed under Degrade: %v", err)
	}

	g1, g2, gs := goldenOf(staged1), goldenOf(staged2), goldenOf(seq)
	if !reflect.DeepEqual(g1, g2) {
		t.Errorf("repeat run diverged:\nrun1: %+v\nrun2: %+v", g1, g2)
	}
	if !reflect.DeepEqual(g1, gs) {
		t.Errorf("parallel=4 and parallel=1 diverged:\nparallel=4: %+v\nparallel=1: %+v", g1, gs)
	}
	if g1.SkippedTests == 0 && g1.Retries == 0 {
		t.Error("heavy chaos profile neither skipped nor retried anything: the golden equality is vacuous")
	}
	// Every skip carries a reason and a valid program index.
	for _, s := range staged1.Skips {
		if s.Reason == "" || s.Prog < 0 || s.Prog >= g1.Programs {
			t.Errorf("malformed skip record: %+v", s)
		}
	}
}

// TestChaosFailFastAborts pins the default policy: the same chaos campaign
// without Degrade fails instead of silently skipping.
func TestChaosFailFastAborts(t *testing.T) {
	e := chaosExperiment(4)
	e.FailPolicy = scamv.FailFast
	e.Retries = 0
	if _, err := scamv.Run(e); err == nil {
		t.Fatal("heavy chaos under FailFast with no retries completed without error")
	}
}

// TestDegradeHealthyMatchesFailFast pins the no-op guarantee: on a healthy
// platform, Degrade changes nothing — same counts, no skips, and a rendered
// table byte-identical to the FailFast one.
func TestDegradeHealthyMatchesFailFast(t *testing.T) {
	run := func(p scamv.FailPolicy) *scamv.Result {
		u, _ := scamv.MPartExperiments(false, 4, 6, 2021)
		u.Repeats = 2
		u.FailPolicy = p
		r, err := scamv.Run(u)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ff := run(scamv.FailFast)
	dg := run(scamv.Degrade)
	if !reflect.DeepEqual(goldenOf(ff), goldenOf(dg)) {
		t.Errorf("healthy Degrade diverged from FailFast:\nfailfast: %+v\ndegrade:  %+v",
			goldenOf(ff), goldenOf(dg))
	}
	if dg.SkippedTests != 0 || dg.QuarantinedPrograms != 0 || dg.Retries != 0 {
		t.Errorf("healthy Degrade recorded resilience events: %+v", goldenOf(dg))
	}
	// The rendered table keeps the pre-resilience layout: no resilience rows
	// appear on a healthy run (wall-clock cells differ run to run, so the
	// check is structural, not byte comparison across runs).
	for _, table := range []string{scamv.FormatTable(ff), scamv.FormatTable(dg)} {
		for _, row := range []string{"Skipped tests", "Quarantined", "Retries", "Timeouts", "Breaker trips"} {
			if strings.Contains(table, row) {
				t.Errorf("healthy table grew a %q row:\n%s", row, table)
			}
		}
	}
}

// TestCancelDuringChaosHangDoesNotLeak cancels a campaign wedged on
// unbounded injected hangs and checks every pipeline goroutine exits: the
// platform must take the ctx.Done arm, and the engine must unwind rather
// than wait for an execution that never returns.
func TestCancelDuringChaosHangDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	u, _ := scamv.MPartExperiments(false, 4, 6, 2021)
	u.Repeats = 2
	u.Parallel = 4
	// Every call hangs until cancellation: the campaign cannot progress.
	u.Platform = faultinject.New(nil, faultinject.Profile{Name: "wedge", HangProb: 1}, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := scamv.RunContext(ctx, u)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged campaign completed successfully")
		}
		if !errors.Is(err, context.Canceled) {
			t.Logf("campaign error after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not return after cancel")
	}

	leaked := true
	var after int
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
		if after <= before {
			leaked = false
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leaked {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked after cancel: before=%d after=%d\n%s", before, after, buf[:n])
	}
}

// TestMultiPlatformSurvivesDeadBackend runs a campaign on a two-backend pool
// with one dead member: the breaker trips, the pool rotates to the healthy
// backend, and the campaign's counts match a plain single-platform run.
func TestMultiPlatformSurvivesDeadBackend(t *testing.T) {
	base, _ := scamv.MPartExperiments(false, 4, 6, 2021)
	base.Repeats = 2

	plain := base
	r0, err := scamv.Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	pooled := base
	pooled.Platform = scamv.NewMultiPlatform(
		resilient.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		scamv.DeadPlatform{Reason: "unit test"},
		scamv.SimPlatform{},
	)
	r1, err := scamv.Run(pooled)
	if err != nil {
		t.Fatalf("campaign with a dead pool member failed: %v", err)
	}

	if r1.BreakerTrips == 0 {
		t.Error("dead backend never tripped its breaker")
	}
	g0, g1 := goldenOf(r0), goldenOf(r1)
	g0.BreakerTrips, g1.BreakerTrips = 0, 0
	g0.Retries, g1.Retries = 0, 0 // pool-internal rotation, not test retries
	if !reflect.DeepEqual(g0, g1) {
		t.Errorf("pooled campaign diverged from single-platform run:\nplain:  %+v\npooled: %+v", g0, g1)
	}
}
