package main

import (
	"scamv"
	"scamv/internal/gen"
	"scamv/internal/micro"
	"scamv/internal/obs"
)

// workload is one pinned campaign configuration. A run executes a sequence
// of its campaigns, each of the pinned size, seeded from the run's seed.
// WORKLOADS.md records why each was chosen and what it should move.
type workload struct {
	name string
	// programs is the campaign size of a benchmark run; tiny the size of
	// the self-tests. Tests per program are fixed by build.
	programs, tiny int
	// durable sends the campaign's trace, log and checkpoint journal to
	// files on local disk; otherwise the log is kept in memory and there is
	// no trace or journal.
	durable bool
	// workers is the campaign's Experiment.Parallel before the cap at the
	// host's CPU count.
	workers int
	build   func(seed int64, programs int) (scamv.Experiment, error)
}

func (w *workload) parallel() int { return min(w.workers, maxProcs()) }

var workloads = []*workload{
	{name: "mline-gen", programs: 5, tiny: 1, workers: 2, build: mlineGen},
	{name: "zoo-exec", programs: 4, tiny: 1, workers: 1, build: zooExec},
	{name: "durable-mpart", programs: 24, tiny: 3, workers: 1, durable: true, build: durableMpart},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mlineGen is the pinned generation campaign: TemplateA composed three
// times (8 symbolic paths), refined M_ct/M_spec, M_line coverage support
// (128 classes), 40 tests per program, on the single A53-like platform.
func mlineGen(seed int64, programs int) (scamv.Experiment, error) {
	return scamv.Experiment{
		Name:            "mline-gen",
		Template:        gen.Sequence{Parts: []gen.Template{gen.TemplateA{}, gen.TemplateA{}, gen.TemplateA{}}},
		Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll},
		Refined:         true,
		Support:         obs.MLine{Geom: obs.DefaultGeometry},
		Programs:        programs,
		TestsPerProgram: 40,
		Seed:            seed,
		MaxConflicts:    200000,
	}, nil
}

// zooExec is the Fig. 7 Template C refined M_ct→M_spec campaign, 100 tests
// per program, executed on every micro preset: a53 first (the primary
// row), then the others in micro.PresetNames order.
func zooExec(seed int64, programs int) (scamv.Experiment, error) {
	_, e := scamv.MCtExperiments(gen.TemplateC{}, programs, 100, seed)
	names := []string{"a53"}
	for _, n := range micro.PresetNames() {
		if n != "a53" {
			names = append(names, n)
		}
	}
	specs, err := scamv.PlatformsFromPresets(names...)
	if err != nil {
		return scamv.Experiment{}, err
	}
	e.Platforms = specs
	return e, nil
}

// durableMpart is the refined Table 1 M_part' campaign (Stride template,
// M_line support, attacker region sets 61..127, noise 0.01), 40 tests per
// program.
func durableMpart(seed int64, programs int) (scamv.Experiment, error) {
	_, e := scamv.MPartExperiments(false, programs, 40, seed)
	return e, nil
}
