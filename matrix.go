package scamv

import (
	"fmt"
	"strings"
	"time"

	"scamv/internal/micro"
)

// This file is the platform-matrix campaign driver: one generated test suite
// executed across a zoo of simulated platforms (internal/micro presets),
// producing a per-platform soundness verdict for the observational model
// under validation. The paper validates its models against a single platform
// (the Cortex-A53 of the Raspberry Pi 3); soundness, however, is a
// per-platform property — the same refined relation can hold on an in-order
// core and be falsified by a prefetcher, a different replacement policy, or a
// wider speculation window. The matrix campaign makes that comparison cheap:
//
//   - Test generation is platform-independent (the relation constrains
//     architectural state, not the microarchitecture), so the suite is
//     generated ONCE and its cost amortized over all K platforms.
//   - Execution is batched per test case: the K platform runs of a test
//     execute back to back inside the Execute stage, so a K-platform matrix
//     costs one generation plus K executions — far below K independent
//     campaigns.
//   - Platform 0 is the campaign's primary row: its verdicts feed the
//     top-level Result exactly as a single-platform campaign's would, so a
//     matrix whose first platform is the default config reproduces today's
//     counts bit for bit.

// PlatformSpec names one platform of a matrix campaign.
type PlatformSpec struct {
	// Name identifies the platform in reports, logs, and telemetry.
	Name string
	// Micro is the platform's simulated core (merged with WithDefaults).
	Micro micro.Config
}

// PlatformsFromPresets resolves preset names (see micro.PresetNames) into
// matrix platform specs, preserving order.
func PlatformsFromPresets(names ...string) ([]PlatformSpec, error) {
	specs := make([]PlatformSpec, 0, len(names))
	for _, name := range names {
		cfg, err := micro.Preset(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, PlatformSpec{Name: strings.ToLower(strings.TrimSpace(name)), Micro: cfg})
	}
	return specs, nil
}

// PlatformResult is one row of the soundness matrix: the campaign's counts
// restricted to a single platform. Count fields and the first-counterexample
// index are deterministic per seed; ExeTime is wall clock.
type PlatformResult struct {
	Platform        string
	Experiments     int
	Counterexamples int
	Inconclusive    int
	SkippedTests    int
	ExeTime         time.Duration

	// Found reports whether this platform produced a counterexample;
	// FirstCEProgram/FirstCETest locate the first one in campaign order
	// (-1/-1 when Found is false).
	Found          bool
	FirstCEProgram int
	FirstCETest    int
}

// Verdict classifies the model on this platform: "unsound" when the platform
// distinguished a pair the model equates, "sound" when no counterexample was
// found (soundness evidence, not proof), "no-data" when nothing executed.
func (r *PlatformResult) Verdict() string {
	switch {
	case r.Counterexamples > 0:
		return "unsound"
	case r.Experiments == 0:
		return "no-data"
	default:
		return "sound"
	}
}

// platformTally is one program's contribution to one matrix row, merged in
// program order by Result.mergeProgram like the rest of programResult.
type platformTally struct {
	experiments     int
	counterexamples int
	inconclusive    int
	skipped         int
	exeTime         time.Duration
	found           bool
	firstCETest     int
}

func (pt *platformTally) count(v Verdict, d time.Duration, t int) {
	pt.experiments++
	pt.exeTime += d
	switch v {
	case Counterexample:
		pt.counterexamples++
		if !pt.found {
			pt.found = true
			pt.firstCETest = t
		}
	case Inconclusive:
		pt.inconclusive++
	}
}

// buildMatrix validates the platform list and derives the per-platform
// experiment clones the Execute stage batches over. Each clone is the
// campaign experiment with only the simulated core swapped: training, noise
// seeds, repeat counts, and the attacker view stay platform-independent, so
// every platform row sees the same test suite under the same measurement
// protocol.
func buildMatrix(e *Experiment) error {
	if len(e.Platforms) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(e.Platforms))
	e.matrixExps = make([]*Experiment, len(e.Platforms))
	for k, spec := range e.Platforms {
		if spec.Name == "" {
			return fmt.Errorf("scamv: matrix platform %d has no name", k)
		}
		if seen[spec.Name] {
			return fmt.Errorf("scamv: duplicate matrix platform %q", spec.Name)
		}
		seen[spec.Name] = true
		pe := *e
		pe.Micro = spec.Micro.WithDefaults()
		// A clone is a plain single-platform experiment: it must not carry
		// the matrix fields of the campaign it serves.
		pe.Platforms, pe.matrixExps = nil, nil
		e.matrixExps[k] = &pe
	}
	return nil
}

// FormatMatrix renders a campaign's per-platform soundness table. The layout
// is count-only (no wall-clock columns), so for a deterministic platform the
// rendering is byte-stable per seed — the property the golden matrix test
// pins down.
func FormatMatrix(r *Result) string {
	if len(r.Matrix) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "matrix[%s] model=%s refinement=%s:\n", r.Name, r.Model, r.Refinement)
	rows := [][]string{{"platform", "verdict", "exps", "cex", "inconcl", "skipped", "first c.e."}}
	for i := range r.Matrix {
		row := &r.Matrix[i]
		first := "-"
		if row.Found {
			first = fmt.Sprintf("p%d/t%d", row.FirstCEProgram, row.FirstCETest)
		}
		rows = append(rows, []string{
			row.Platform,
			row.Verdict(),
			fmt.Sprintf("%d", row.Experiments),
			fmt.Sprintf("%d", row.Counterexamples),
			fmt.Sprintf("%d", row.Inconclusive),
			fmt.Sprintf("%d", row.SkippedTests),
			first,
		})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		sb.WriteString(" ")
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
