package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

const (
	// minReps is the fewest measured campaigns a run makes, however short
	// its budget.
	minReps = 3
	// setupProbes is the number of extra set-ups a run measures by
	// cancelling a campaign at its first Generate call.
	setupProbes = 40
)

// endToEndMetrics names every metric of an untraced run, with its unit.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"tests_per_s", "1/s"},
	{"gen_ms_per_test", "ms"},
	{"gen_p50_ms", "ms"},
	{"gen_p95_ms", "ms"},
	{"alloc_mb_per_test", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
}

// endToEndRun measures the workload with tracing off. After a warm-up
// campaign and setupProbes set-up-only campaigns, it runs a sequence of
// distinct campaigns — campaign k seeded with campaignSeed(k) — until the
// budget is spent, at least minReps of them. Campaign 0 runs twice (as
// warm-up and measured), so every run checks that a campaign repeats its
// digest. The per-campaign metrics are reported as medians over campaigns,
// which keeps one slow program from moving a run's figures.
func endToEndRun(c runConfig) (*result, error) {
	start := time.Now()
	chk := &checker{c: c}
	warm, err := runCampaign(c, c.campaignSeed(0), false, false)
	if err != nil {
		return nil, err
	}
	chk.check(warm, c.campaignSeed(0))
	setups := []float64{}
	for i := 0; i < setupProbes; i++ {
		r, err := runCampaign(c, c.campaignSeed(0), false, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	var reps []*rep
	for k := 0; len(reps) < minReps || time.Since(start) < c.budget; k++ {
		r, err := runCampaign(c, c.campaignSeed(k), false, false)
		if err != nil {
			return nil, err
		}
		chk.check(r, c.campaignSeed(k))
		if k == 0 && r.digest != warm.digest {
			chk.fail(fmt.Sprintf("campaign seed %d: digest %s on its second run, %s on its first", c.seed, r.digest, warm.digest))
		}
		reps = append(reps, r)
		setups = append(setups, r.setup.Seconds())
	}

	var tps, genPer, p50, p95, allocPer, rss []float64
	executed, attempted, samples := 0, 0, 0
	for _, r := range reps {
		res := r.res
		tps = append(tps, float64(res.Experiments)/r.wall.Seconds())
		genPer = append(genPer, ms(res.GenTime)/float64(res.Experiments))
		gen := r.gen
		slices.Sort(gen)
		p50 = append(p50, float64(quantile(gen, 0.50))/1e3)
		p95 = append(p95, float64(quantile(gen, 0.95))/1e3)
		allocPer = append(allocPer, float64(r.rt.allocBytes)/1e6/float64(res.Experiments))
		rss = append(rss, r.peakRSS)
		executed += res.Experiments
		attempted += res.Experiments + res.SkippedTests
		samples += len(gen)
	}
	vals := map[string]float64{
		"setup_s":           median(setups),
		"tests_per_s":       median(tps),
		"gen_ms_per_test":   median(genPer),
		"gen_p50_ms":        median(p50),
		"gen_p95_ms":        median(p95),
		"alloc_mb_per_test": median(allocPer),
		"peak_rss_mb":       median(rss),
		"ok_share":          float64(executed) / float64(attempted),
	}
	fmt.Printf("measured %s: %d campaigns of %d programs, %d set-ups, %d generation samples, %.1fs; tests/s per campaign %.1f..%.1f\n",
		c.w.name, len(reps), c.programs, len(setups), samples, time.Since(start).Seconds(), slices.Min(tps), slices.Max(tps))
	return chk.result(metricsOf(endToEndMetrics, vals)), nil
}

func metricsOf(defs []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("metric %s has no finite value", d.name))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted samples. Every
// benchmark campaign logs at least 200 tests on its primary platform, so
// its p95 has at least ten samples beyond it.
func quantile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// checker compares each campaign of a run with its committed golden, when
// there is one, and counts the campaigns that fail a check.
type checker struct {
	c       runConfig
	checked int
	failed  int
}

func (k *checker) check(r *rep, seed int64) {
	k.checked++
	golden := goldenDigest(k.c.w.name, k.c.programs, seed)
	note := "no golden"
	if golden != "" {
		note = "golden " + golden
	}
	fmt.Printf("digest %s programs=%d seed=%d %s (%s)\n", k.c.w.name, k.c.programs, seed, r.digest, note)
	switch {
	case r.inconsistent != nil:
		k.fail(r.inconsistent.Error())
	case golden != "" && r.digest != golden:
		k.fail(fmt.Sprintf("%s programs=%d seed=%d: digest differs from its golden", k.c.w.name, k.c.programs, seed))
	}
}

func (k *checker) fail(msg string) {
	k.failed++
	fmt.Printf("check failed: %s\n", msg)
}

func (k *checker) result(m map[string]metric) *result {
	return &result{Correct: k.failed == 0, Attempted: k.checked, Failed: min(k.failed, k.checked), Metrics: m}
}
