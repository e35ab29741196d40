package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
	"unsafe"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/bir"
	"scamv/internal/core"
	"scamv/internal/expr"
	"scamv/internal/lifter"
	"scamv/internal/sat"
	"scamv/internal/smt"
	"scamv/internal/symexec"
)

// perLayerMetrics names every metric of a traced run, with its unit,
// grouped by the module that does the work.
var perLayerMetrics = []struct{ name, unit string }{
	{"gen.generate_ms", "ms"},
	{"gen.programs", "count"},
	{"arm.roundtrip_ms", "ms"},
	{"arm.fallbacks", "count"},
	{"lifter.lift_ms", "ms"},
	{"obs.instrument_ms", "ms"},
	{"obs.stmts", "count"},
	{"symexec.run_ms", "ms"},
	{"symexec.paths", "count"},
	{"symexec.alloc_mb", "MB"},
	{"core.next_ms", "ms"},
	{"core.next_alloc_mb", "MB"},
	{"core.queries", "count"},
	{"core.sat", "count"},
	{"core.unsat", "count"},
	{"core.given_up", "count"},
	{"core.useful_share", "share"},
	{"core.relation_ms", "ms"},
	{"core.prefix_pairs", "count"},
	{"core.prefix_unsat", "count"},
	{"smt.encode_ms", "ms"},
	{"smt.encode_alloc_mb", "MB"},
	{"smt.vars", "count"},
	{"smt.clauses", "count"},
	{"smt.blast_hit_share", "share"},
	{"smt.ack_reads", "count"},
	{"sat.search_ms", "ms"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.props_per_ms", "1/ms"},
	{"micro.execute_ms", "ms"},
	{"micro.calls", "count"},
	{"micro.sim_cycles", "count"},
	{"micro.host_ns_per_sim_cycle", "ns"},
	{"micro.alloc_mb", "MB"},
	{"stage.testgen.busy_ms", "ms"},
	{"stage.testgen.stall_ms", "ms"},
	{"stage.execute.busy_ms", "ms"},
	{"stage.execute.wait_ms", "ms"},
	{"stage.collect.busy_ms", "ms"},
	{"telemetry.bytes", "bytes"},
	{"telemetry.write_ms", "ms"},
	{"logdb.bytes", "bytes"},
	{"logdb.write_ms", "ms"},
	{"journal.syncs", "count"},
	{"journal.sync_ms", "ms"},
	{"journal.bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_share", "share"},
	{"bench.trace_overhead", "ratio"},
}

// tracedRun gives the per-layer breakdown. After a warm-up it alternates
// untraced campaigns with campaigns run under the probe wrappers until the
// budget is spent (at least two of each). The wrappers give the gen, micro
// and writer/journal metrics; the untraced campaigns the stage and runtime
// metrics; their wall-time ratio the tracing overhead. Then the programs
// of the first traced campaign are replayed one at a time, with spans
// around each layer's public functions, for the generation layers' self
// time, allocation and counts. Every count the replay shares with the
// campaign must equal the campaign's.
func tracedRun(c runConfig, h host, out string) (*result, error) {
	start := time.Now()
	seed := c.campaignSeed(0)
	chk := &checker{c: c}
	warm, err := runCampaign(c, seed, false, false)
	if err != nil {
		return nil, err
	}
	chk.check(warm, seed)
	var plain, traced []*rep
	for len(traced) < 2 || time.Since(start) < c.budget {
		for _, tr := range []bool{false, true} {
			r, err := runCampaign(c, seed, tr, false)
			if err != nil {
				return nil, err
			}
			chk.check(r, seed)
			if r.digest != warm.digest {
				chk.fail(fmt.Sprintf("campaign (traced=%v) digest %s, warm-up %s", tr, r.digest, warm.digest))
			}
			if tr {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
	}
	cycles := traced[0].probes.platform.cycles.Load()
	for i, t := range traced[1:] {
		if got := t.probes.platform.cycles.Load(); got != cycles {
			chk.fail(fmt.Sprintf("traced campaign %d simulated %d cycles, the first %d", i+2, got, cycles))
		}
	}

	e, err := c.experiment(seed)
	if err != nil {
		return nil, err
	}
	e = e.WithDefaults()
	rec := newSpanRecorder()
	n, err := replay(e, traced[0].probes.tpl.progs, rec)
	if err != nil {
		return nil, err
	}
	res := traced[0].res
	for _, eq := range []struct {
		what           string
		replay, campgn int
	}{
		{"gen.programs", traced[0].probes.tpl.calls, res.Programs},
		{"replayed programs", n.programs, res.Programs},
		{"core.queries", n.queries, res.Queries},
		{"core.sat", n.sat, res.Experiments + res.SkippedTests},
		{"arm.fallbacks", n.fallbacks, res.EncodeFallbacks},
	} {
		if eq.replay != eq.campgn {
			chk.fail(fmt.Sprintf("%s: traced run %d, campaign %d", eq.what, eq.replay, eq.campgn))
		}
	}

	vals := medianMaps(mapEach(traced, probeMetrics))
	for k, v := range medianMaps(mapEach(plain, plainMetrics)) {
		vals[k] = v
	}
	var tw, pw []float64
	for i := range traced {
		tw, pw = append(tw, traced[i].wall.Seconds()), append(pw, plain[i].wall.Seconds())
	}
	vals["bench.trace_overhead"] = median(tw) / median(pw)
	self := rec.selfTotals()
	for k, v := range n.metrics(self) {
		vals[k] = v
	}

	shares := map[string]float64{
		"paths_per_program":  vals["symexec.paths"] / vals["gen.programs"],
		"unsat_share":        vals["core.unsat"] / vals["core.queries"],
		"testgen_busy_share": vals["stage.testgen.busy_ms"] / (vals["stage.testgen.busy_ms"] + vals["stage.execute.busy_ms"]),
		"write_path_share":   writeShare(traced[0]),
	}
	sb, _ := json.Marshal(shares)
	fmt.Printf("shares %s %s\n", c.w.name, sb)
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", c.w.name, c.seed))
	if err := rec.write(path, h, self); err != nil {
		return nil, err
	}
	fmt.Printf("spans %s: %d spans, %d campaigns, %.1fs\n", path, len(rec.spans), 1+2*len(traced), time.Since(start).Seconds())
	chk.checked++ // the replay
	return chk.result(metricsOf(perLayerMetrics, vals)), nil
}

// probeMetrics reads the wrapper measurements of one traced campaign.
func probeMetrics(r *rep) map[string]float64 {
	p := r.probes
	busy, cycles := float64(p.platform.busyNS.Load()), float64(p.platform.cycles.Load())
	return map[string]float64{
		"gen.generate_ms":             ms(p.tpl.busy),
		"gen.programs":                float64(p.tpl.calls),
		"micro.execute_ms":            busy / 1e6,
		"micro.calls":                 float64(p.platform.calls.Load()),
		"micro.sim_cycles":            cycles,
		"micro.host_ns_per_sim_cycle": busy / cycles,
		"telemetry.bytes":             float64(p.trace.bytes.Load()),
		"telemetry.write_ms":          float64(p.trace.writeNS.Load()) / 1e6,
		"logdb.bytes":                 float64(p.log.bytes.Load()),
		"logdb.write_ms":              float64(p.log.writeNS.Load()) / 1e6,
		"journal.syncs":               float64(p.journal.syncs.Load()),
		"journal.sync_ms":             float64(p.journal.syncNS.Load()) / 1e6,
		"journal.bytes":               float64(p.journal.bytes.Load()),
	}
}

// plainMetrics reads the stage spine and runtime counters of one untraced
// campaign.
func plainMetrics(r *rep) map[string]float64 {
	m := map[string]float64{
		"runtime.gc_cycles":    float64(r.rt.gcCycles),
		"runtime.gc_pause_ms":  ms(r.rt.gcPause),
		"runtime.gc_cpu_share": r.rt.gcCPU / r.rt.totalCPU,
	}
	for _, s := range r.res.Stages {
		switch s.Name {
		case "testgen":
			m["stage.testgen.busy_ms"], m["stage.testgen.stall_ms"] = ms(s.Busy), ms(s.Stall)
		case "execute":
			m["stage.execute.busy_ms"], m["stage.execute.wait_ms"] = ms(s.Busy), ms(s.Wait)
		case "collect":
			m["stage.collect.busy_ms"] = ms(s.Busy)
		}
	}
	return m
}

// writeShare is the share of a traced campaign's wall time spent inside
// trace, log and journal writes and fsyncs.
func writeShare(r *rep) float64 {
	p := r.probes
	ns := p.trace.writeNS.Load() + p.log.writeNS.Load() + p.journal.writeNS.Load() + p.journal.syncNS.Load()
	return float64(ns) / float64(r.wall)
}

func mapEach(reps []*rep, f func(*rep) map[string]float64) []map[string]float64 {
	out := make([]map[string]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// medianMaps takes the per-key median of maps with the same keys.
func medianMaps(ms []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range ms[0] {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, m[k])
		}
		out[k] = median(xs)
	}
	return out
}

// replayCounts is what the replay counted, summed over programs.
type replayCounts struct {
	programs, fallbacks, stmts, paths int
	queries, sat, unsat, givenUp      int
	prefixPairs, prefixUnsat          int
	vars, clauses                     int
	blastHits, blastMisses, ackReads  int64
	conflicts, decisions, props       int64
}

func (n *replayCounts) metrics(self map[string]selfStat) map[string]float64 {
	search := ms(self["sat.search"].time)
	return map[string]float64{
		"arm.roundtrip_ms":    ms(self["arm.roundtrip"].time),
		"arm.fallbacks":       float64(n.fallbacks),
		"lifter.lift_ms":      ms(self["lifter.lift"].time),
		"obs.instrument_ms":   ms(self["obs.instrument"].time),
		"obs.stmts":           float64(n.stmts),
		"symexec.run_ms":      ms(self["symexec.run"].time),
		"symexec.paths":       float64(n.paths),
		"symexec.alloc_mb":    self["symexec.run"].allocMB(),
		"core.next_ms":        ms(self["core.next"].time),
		"core.next_alloc_mb":  self["core.next"].allocMB(),
		"core.queries":        float64(n.queries),
		"core.sat":            float64(n.sat),
		"core.unsat":          float64(n.unsat),
		"core.given_up":       float64(n.givenUp),
		"core.useful_share":   float64(n.sat) / float64(n.queries),
		"core.relation_ms":    ms(self["core.relation"].time),
		"core.prefix_pairs":   float64(n.prefixPairs),
		"core.prefix_unsat":   float64(n.prefixUnsat),
		"smt.encode_ms":       ms(self["smt.encode"].time),
		"smt.encode_alloc_mb": self["smt.encode"].allocMB(),
		"smt.vars":            float64(n.vars),
		"smt.clauses":         float64(n.clauses),
		"smt.blast_hit_share": float64(n.blastHits) / float64(n.blastHits+n.blastMisses),
		"smt.ack_reads":       float64(n.ackReads),
		"sat.search_ms":       search,
		"sat.conflicts":       float64(n.conflicts),
		"sat.decisions":       float64(n.decisions),
		"sat.propagations":    float64(n.props),
		"sat.props_per_ms":    float64(n.props) / search,
		"micro.alloc_mb":      self["micro.execute"].allocMB(),
	}
}

// replay re-runs the generation and execution of the given programs one at
// a time, with a span around every call into a layer:
//
//   - arm.Encode/Decode round trip, lifter.Lift, ModelPair.Instrument,
//     symexec.Run;
//   - every core.Generator.Next call of the program's generator, seeded as
//     the campaign seeds it;
//   - a prefix replay per (path pair, refinement slot), mirroring the
//     shared pair solver core.Generator builds: core.PairRelationSlot and
//     the register-difference constraint, smt.Solver.Assert (encoding:
//     memory elimination and bit-blasting), smt.Solver.Check (CDCL search);
//   - Pipeline.ExecuteTestCase of every generated test on every platform.
//
// The prefix replay is what splits encoding from search from outside the
// program.
func replay(e scamv.Experiment, progs []*arm.Program, rec *spanRecorder) (replayCounts, error) {
	var n replayCounts
	platforms := platformExperiments(e)
	refined := e.Refined && e.Model.Refined()
	for p, prog := range progs {
		rec.begin("program", p)
		rec.begin("arm.roundtrip", p)
		prog, fallback := roundTrip(prog)
		rec.end()
		if fallback {
			n.fallbacks++
		}
		rec.begin("lifter.lift", p)
		bp, err := lifter.Lift(prog)
		rec.end()
		if err != nil {
			return n, err
		}
		rec.begin("obs.instrument", p)
		inst, err := e.Model.Instrument(bp)
		rec.end()
		if err != nil {
			return n, err
		}
		rec.begin("symexec.run", p)
		paths, err := symexec.Run(inst, 0)
		rec.end()
		if err != nil {
			return n, err
		}
		n.programs++
		n.stmts += stmtCount(inst)
		n.paths += len(paths)
		pl := &scamv.Pipeline{Prog: prog, Model: e.Model, Instrumented: inst, Paths: paths, Registers: archRegs(inst)}

		progSeed := e.Seed + int64(p) + 1
		rec.begin("core.generate", p)
		g := pl.Generator(&e, progSeed)
		var tests []*core.TestCase
		for t := 0; t < e.TestsPerProgram; t++ {
			rec.begin("core.next", p)
			tc, ok := g.Next()
			rec.end()
			if !ok {
				break
			}
			tests = append(tests, tc)
		}
		rec.end()
		n.queries += g.QueriesSat + g.QueriesUnsat + g.QueriesFailed
		n.sat += g.QueriesSat
		n.unsat += g.QueriesUnsat
		n.givenUp += g.QueriesFailed

		rec.begin("core.prefix", p)
		for a := range paths {
			for b := range paths {
				for _, slot := range refinementSlots(paths, a, b, refined) {
					rec.begin("core.relation", p)
					fs := prefixFormulas(paths[a], paths[b], refined, slot, pl.Registers)
					rec.end()
					s := smt.New(smt.Options{
						Seed:            progSeed*1000003 + int64(a)*8191 + int64(b)*131 + int64(slot),
						RandomPhaseProb: e.RandomPhaseProb,
						MaxConflicts:    e.MaxConflicts,
					})
					rec.begin("smt.encode", p)
					for _, f := range fs {
						s.Assert(f)
					}
					rec.end()
					vars, clauses, err := cnfSize(s)
					if err != nil {
						return n, err
					}
					rec.begin("sat.search", p)
					status := s.Check()
					rec.end()
					st := s.Stats()
					n.prefixPairs++
					if status == sat.Unsat {
						n.prefixUnsat++
					}
					n.vars += vars
					n.clauses += clauses
					n.blastHits += st.BlastHits
					n.blastMisses += st.BlastMisses
					n.ackReads += st.AckermannReads
					n.conflicts += st.Conflicts
					n.decisions += st.Decisions
					n.props += st.Propagations
				}
			}
		}
		rec.end()

		rec.begin("micro.replay", p)
		train := map[int]*core.State{}
		for t, tc := range tests {
			var tr *core.State
			if e.Speculative {
				if cached, ok := train[tc.PathA]; ok {
					tr = cached
				} else {
					rec.begin("core.training", p)
					tr, _ = pl.TrainingState(tc.PathA, e.Seed+int64(p))
					rec.end()
					train[tc.PathA] = tr
				}
			}
			for _, pe := range platforms {
				rec.begin("micro.execute", p)
				_, err := pl.ExecuteTestCase(pe, tc, tr, e.Seed^int64(p)<<20^int64(t))
				rec.end()
				if err != nil {
					return n, err
				}
			}
		}
		rec.end()
		rec.end()
	}
	return n, nil
}

// roundTrip is the campaign's A64 encode/decode round trip: a program
// whose decoding re-encodes differently runs in its structured form and
// counts as a fallback.
func roundTrip(prog *arm.Program) (*arm.Program, bool) {
	words, err := arm.Encode(prog)
	if err != nil {
		return prog, false
	}
	decoded, err := arm.Decode(prog.Name, words)
	if err != nil {
		return prog, false
	}
	if again, err := arm.Encode(decoded); err == nil && slices.Equal(words, again) {
		return decoded, false
	}
	return prog, true
}

// platformExperiments returns the experiment each test runs on: the
// campaign itself, or one clone per matrix platform with its core swapped.
func platformExperiments(e scamv.Experiment) []*scamv.Experiment {
	if len(e.Platforms) == 0 {
		return []*scamv.Experiment{&e}
	}
	var out []*scamv.Experiment
	for _, spec := range e.Platforms {
		pe := e
		pe.Micro = spec.Micro.WithDefaults()
		pe.Platforms = nil
		out = append(out, &pe)
	}
	return out
}

// archRegs lists the program's architectural registers (x0, x1, ...),
// sorted, as the campaign's Pipeline does.
func archRegs(p *bir.Program) []string {
	var regs []string
	for name := range p.Registers() {
		if len(name) >= 2 && name[0] == 'x' && strings.Trim(name[1:], "0123456789") == "" {
			regs = append(regs, name)
		}
	}
	slices.Sort(regs)
	return regs
}

func stmtCount(p *bir.Program) int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Stmts)
	}
	return n
}

// refinementSlots lists the refinement slots core.Generator opens for a
// path pair: one per refined observation when the two paths' refined lists
// align, otherwise the generic disjunction (-1).
func refinementSlots(paths []*symexec.Path, a, b int, refined bool) []int {
	na, nb := len(paths[a].RefinedObs()), len(paths[b].RefinedObs())
	if !refined || na != nb || na == 0 {
		return []int{-1}
	}
	out := make([]int, na)
	for i := range out {
		out[i] = i
	}
	return out
}

// prefixFormulas is the class-independent part of a pair solver: the pair
// relation for the slot and the requirement that the two register vectors
// differ.
func prefixFormulas(pa, pb *symexec.Path, refined bool, slot int, regs []string) []expr.BoolExpr {
	out := []expr.BoolExpr{core.PairRelationSlot(pa, pb, refined, slot)}
	var diff []expr.BoolExpr
	for _, r := range regs {
		diff = append(diff, expr.Neq(expr.NewVar(r+"_1", 64), expr.NewVar(r+"_2", 64)))
	}
	if len(diff) > 0 {
		out = append(out, expr.OrB(diff...))
	}
	return out
}

// cnfSize reads the variable and clause count of a solver's SAT backend.
// smt.Solver has no size accessor, so the benchmark reads its unexported
// backend field by reflection; if the field is renamed or changes type,
// the traced run fails rather than reporting a wrong size.
func cnfSize(s *smt.Solver) (vars, clauses int, err error) {
	f := reflect.ValueOf(s).Elem().FieldByName("sat")
	if !f.IsValid() {
		return 0, 0, fmt.Errorf("smt.Solver has no field sat")
	}
	eng, ok := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*sat.Solver)
	if !ok {
		return 0, 0, fmt.Errorf("smt.Solver.sat is %s, not *sat.Solver", f.Type())
	}
	return eng.NumVars(), eng.NumClauses(), nil
}

// span is one timed call in the replay. Spans nest: Parent indexes the
// enclosing span (-1 for a program's root span).
type span struct {
	Name   string `json:"name"`
	Prog   int    `json:"prog"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// spanRecorder keeps the replay's spans in memory; they are written out
// when the run ends. Alloc is read from runtime/metrics at both ends of a
// span; the replay is sequential, so the delta is the span's own.
type spanRecorder struct {
	t0     time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *spanRecorder) allocated() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

func (r *spanRecorder) begin(name string, prog int) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Prog: prog, Parent: parent, Alloc: r.allocated(), Start: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
}

func (r *spanRecorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = int64(time.Since(r.t0))
	s.Alloc = r.allocated() - s.Alloc
}

// selfStat is a span name's summed self time and self allocation: each
// span's own, minus what its child spans cover.
type selfStat struct {
	time  time.Duration
	alloc int64
	count int
}

func (s selfStat) allocMB() float64 { return float64(s.alloc) / 1e6 }

func (r *spanRecorder) selfTotals() map[string]selfStat {
	dur := make([]int64, len(r.spans))
	alloc := make([]int64, len(r.spans))
	for i, s := range r.spans {
		dur[i] += s.End - s.Start
		alloc[i] += int64(s.Alloc)
		if s.Parent >= 0 {
			dur[s.Parent] -= s.End - s.Start
			alloc[s.Parent] -= int64(s.Alloc)
		}
	}
	out := map[string]selfStat{}
	for i, s := range r.spans {
		st := out[s.Name]
		st.time += time.Duration(dur[i])
		st.alloc += alloc[i]
		st.count++
		out[s.Name] = st
	}
	return out
}

// write dumps the spans as JSON lines after a header with the host
// fingerprint and the self-time totals per span name.
func (r *spanRecorder) write(path string, h host, self map[string]selfStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type total struct {
		SelfMS  float64 `json:"self_ms"`
		AllocMB float64 `json:"self_alloc_mb"`
		Spans   int     `json:"spans"`
	}
	totals := map[string]total{}
	for name, s := range self {
		totals[name] = total{ms(s.time), s.allocMB(), s.count}
	}
	enc.Encode(struct {
		Host   host             `json:"host"`
		Totals map[string]total `json:"self_totals"`
	}{h, totals})
	for _, s := range r.spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
