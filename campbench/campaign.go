package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/gen"
	"scamv/internal/journal"
	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// runConfig is one benchmark run: a workload at a size and seed, the time
// budget of its measured phase, and a scratch directory for its files.
type runConfig struct {
	w        *workload
	seed     int64
	programs int
	budget   time.Duration
	workdir  string
}

// campaignSeed is the seed of the k-th campaign of a run. Campaign 0 uses
// the run's seed; the stride keeps the campaigns of runs with nearby seeds
// apart, so ten runs with seeds 1..10 measure ten disjoint sets of programs.
func (c runConfig) campaignSeed(k int) int64 { return c.seed + int64(k)*1000003 }

func (c runConfig) experiment(seed int64) (scamv.Experiment, error) {
	e, err := c.w.build(seed, c.programs)
	e.Parallel = c.w.parallel()
	return e, err
}

// rep is one campaign run with everything the benchmark reads from it.
type rep struct {
	setup time.Duration // workload start to the first Template.Generate call
	wall  time.Duration // workload start to the campaign's files closed
	res   *scamv.Result
	// gen is the per-test generation latency in µs from the campaign's
	// log, primary platform only.
	gen    []int64
	digest string
	// inconsistent is non-nil when the campaign's counts and log disagree.
	inconsistent error
	rt           runtimeDelta
	peakRSS      float64 // MB, see peakRSS
	// Traced runs only: the wrappers' measurements and the generated
	// programs, in program order, for the replay.
	probes *probes
}

// probes are the timing wrappers a traced campaign runs with, on the
// program's public seams: the Template, the Platform, the trace and log
// writers, and the journal's filesystem.
type probes struct {
	tpl      *timedTemplate
	platform *timedPlatform
	trace    ioStat
	log      ioStat
	journal  ioStat
}

// runCampaign runs the workload's campaign once. With traced set, the
// campaign runs with the probe wrappers; otherwise only the Template
// wrapper that timestamps the first Generate call is added. With
// setupOnly, the campaign is cancelled at that first call: the run then
// measures set-up alone and its result is discarded.
func runCampaign(c runConfig, seed int64, traced, setupOnly bool) (*rep, error) {
	if !setupOnly {
		// Start every measured campaign from a collected heap returned to
		// the OS, as a campaign in a fresh process would, so one campaign's
		// garbage does not set the next one's GC pacing and peak RSS.
		debug.FreeOSMemory()
	}
	resetPeakRSS()
	rt0 := readRuntime()
	start := time.Now()
	e, err := c.experiment(seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tpl := &timedTemplate{Template: e.Template, capture: traced}
	if setupOnly {
		tpl.onFirst = cancel
	}
	e.Template = tpl
	r := &rep{}
	if traced {
		r.probes = &probes{tpl: tpl, platform: &timedPlatform{}}
		e.Platform = r.probes.platform
	}

	// The log goes to memory, or with the trace and the journal to files
	// on local disk; traced runs time every write and fsync.
	dir := filepath.Join(c.workdir, "campaign")
	var logBuf bytes.Buffer
	var logW, traceW io.Writer = &logBuf, nil
	var jfs journal.FS
	if c.w.durable {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		tf, err := os.Create(filepath.Join(dir, "trace.jsonl"))
		if err != nil {
			return nil, err
		}
		lf, err := os.Create(filepath.Join(dir, "log.jsonl"))
		if err != nil {
			tf.Close()
			return nil, err
		}
		traceW, logW = tf, lf
	}
	if traced {
		logW = &timedWriter{w: logW, st: &r.probes.log}
		if traceW != nil {
			traceW = &timedWriter{w: traceW, st: &r.probes.trace}
			jfs = &timedFS{st: &r.probes.journal}
		}
	}
	e.Log = logdb.NewWriter(logW)
	var tracer *telemetry.Tracer
	var jr *journal.Campaign
	if c.w.durable {
		tracer = telemetry.New(traceW)
		if jr, err = journal.Open(dir, e.Name, journal.Options{FS: jfs}); err != nil {
			return nil, errors.Join(err, e.Log.Close(), tracer.Close())
		}
		e.Trace, e.Journal = tracer, jr
	}
	tpl.start = start

	res, runErr := scamv.RunContext(ctx, e)
	closeErr := errors.Join(e.Log.Close(), tracer.Close(), closeJournal(jr))
	r.wall = time.Since(start)
	r.rt = readRuntime().sub(rt0)
	r.peakRSS = peakRSS()
	r.setup = tpl.setup
	if setupOnly {
		if tpl.setup == 0 {
			return nil, fmt.Errorf("%s: campaign ended before its first program was generated", c.w.name)
		}
		return r, nil
	}
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	r.res = res
	var recs []logdb.Record
	if c.w.durable {
		recs, err = logdb.Load(filepath.Join(dir, "log.jsonl"))
	} else {
		recs, err = logdb.Read(&logBuf)
	}
	if err != nil {
		return nil, err
	}
	r.gen = primaryGenMicros(res, recs)
	r.digest = digest(res, recs)
	r.inconsistent = consistent(c, res, recs)
	return r, nil
}

// primaryGenMicros returns the per-test generation latency of a campaign's
// log, primary platform only (a matrix campaign logs every test once per
// platform, with the same gen_us).
func primaryGenMicros(res *scamv.Result, recs []logdb.Record) []int64 {
	primary := ""
	if len(res.Matrix) > 0 {
		primary = res.Matrix[0].Platform
	}
	var out []int64
	for _, rec := range recs {
		if rec.Platform == primary {
			out = append(out, rec.GenMicros)
		}
	}
	return out
}

// consistent checks a finished campaign's counts against each other and
// against its log: every program ran, no test was skipped, the matrix's
// primary row mirrors the campaign's counts, and the log holds one record
// per executed test and platform.
func consistent(c runConfig, res *scamv.Result, recs []logdb.Record) error {
	rows := max(1, len(res.Matrix))
	switch {
	case res.Programs != c.programs:
		return fmt.Errorf("%s: campaign ran %d of %d programs", c.w.name, res.Programs, c.programs)
	case res.SkippedTests != 0:
		return fmt.Errorf("%s: campaign skipped %d tests", c.w.name, res.SkippedTests)
	case len(res.Matrix) > 0 && (res.Matrix[0].Experiments != res.Experiments || res.Matrix[0].Counterexamples != res.Counterexamples):
		return fmt.Errorf("%s: matrix primary row %+v differs from the campaign counts", c.w.name, res.Matrix[0])
	case len(recs) != res.Experiments*rows:
		return fmt.Errorf("%s: log has %d records for %d tests on %d platforms", c.w.name, len(recs), res.Experiments, rows)
	}
	return nil
}

func closeJournal(j *journal.Campaign) error {
	if j == nil {
		return nil
	}
	return j.Close()
}

// digest hashes what a campaign decided: every log record with its wall
// clock fields removed, in log order, plus the Result counts and matrix
// rows. Two runs of one seed must agree on it whatever their timing.
func digest(res *scamv.Result, recs []logdb.Record) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		r.GenMicros, r.ExeMicros = 0, 0
		enc.Encode(r)
	}
	type row struct {
		Platform                                         string
		Experiments, Counterexamples, Inconclusive, Skip int
		Found                                            bool
		FirstCEProgram, FirstCETest                      int
	}
	counts := struct {
		Programs, Experiments, Counterexamples, Inconclusive, Queries int
		Skipped, EncodeFallbacks, ProgramsWithCounter                 int
		FirstCEProgram, FirstCETest                                   int
		Matrix                                                        []row
	}{
		res.Programs, res.Experiments, res.Counterexamples, res.Inconclusive, res.Queries,
		res.SkippedTests, res.EncodeFallbacks, res.ProgramsWithCounter,
		res.FirstCEProgram, res.FirstCETest, nil,
	}
	for _, m := range res.Matrix {
		counts.Matrix = append(counts.Matrix, row{m.Platform, m.Experiments, m.Counterexamples,
			m.Inconclusive, m.SkippedTests, m.Found, m.FirstCEProgram, m.FirstCETest})
	}
	enc.Encode(counts)
	return hex.EncodeToString(h.Sum(nil))
}

// timedTemplate wraps the pinned gen.Template. It timestamps the first
// Generate call (the end of set-up), and in traced runs times every call
// and keeps the generated programs for the replay. RunContext calls
// Generate from one goroutine, in program order.
type timedTemplate struct {
	gen.Template
	start   time.Time
	setup   time.Duration
	onFirst func()
	capture bool
	calls   int
	busy    time.Duration
	progs   []*arm.Program
}

func (t *timedTemplate) Generate(r *rand.Rand, idx int) *arm.Program {
	t0 := time.Now()
	if t.calls == 0 {
		t.setup = t0.Sub(t.start)
		if t.onFirst != nil {
			t.onFirst()
		}
	}
	t.calls++
	p := t.Template.Generate(r, idx)
	if t.capture {
		t.busy += time.Since(t0)
		t.progs = append(t.progs, p)
	}
	return p
}

// timedPlatform wraps the simulator. A matrix campaign's per-platform
// experiment clones copy Experiment.Platform, so it sees every preset.
type timedPlatform struct {
	calls, busyNS atomic.Int64
	cycles        atomic.Uint64
}

func (p *timedPlatform) Execute(ctx context.Context, e *scamv.Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (scamv.Measurement, error) {
	t0 := time.Now()
	m, err := scamv.SimPlatform{}.Execute(ctx, e, prog, st, train, noise)
	p.busyNS.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	p.cycles.Add(m.Cycles)
	return m, err
}

// ioStat accumulates one writer's traffic: bytes written, time inside
// Write, and fsync count and time.
type ioStat struct {
	bytes, writeNS, syncs, syncNS atomic.Int64
}

// timedWriter times an io.Writer, forwarding Sync and Close when the
// underlying writer has them (logdb and telemetry look for both).
type timedWriter struct {
	w  io.Writer
	st *ioStat
}

func (t *timedWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(b)
	t.st.writeNS.Add(int64(time.Since(t0)))
	t.st.bytes.Add(int64(n))
	return n, err
}

func (t *timedWriter) Sync() error {
	s, ok := t.w.(interface{ Sync() error })
	if !ok {
		return nil
	}
	t0 := time.Now()
	err := s.Sync()
	t.st.syncNS.Add(int64(time.Since(t0)))
	t.st.syncs.Add(1)
	return err
}

func (t *timedWriter) Close() error {
	if c, ok := t.w.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// timedFS is the journal's filesystem with its files' writes and fsyncs
// timed; directory fsyncs count as syncs too.
type timedFS struct {
	journal.OSFS
	st *ioStat
}

func (f *timedFS) Create(name string) (journal.File, error) {
	file, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedWriter{w: file, st: f.st}, nil
}

func (f *timedFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedWriter{w: file, st: f.st}, nil
}

func (f *timedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.OSFS.SyncDir(dir)
	f.st.syncNS.Add(int64(time.Since(t0)))
	f.st.syncs.Add(1)
	return err
}

// runtimeDelta is what the Go runtime did during one campaign.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   uint64(ms.NumGC),
		gcPause:    time.Duration(ms.PauseTotalNs),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPause:    a.gcPause - b.gcPause,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// resetPeakRSS restarts the kernel's peak-RSS watermark of this process, so
// that peakRSS reports the peak of one campaign; where /proc/self/clear_refs
// cannot be written, peakRSS reports the peak of the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set in MB: VmHWM from
// /proc/self/status, or ru_maxrss where that is not available.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
