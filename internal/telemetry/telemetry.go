// Package telemetry is the campaign observability spine: a low-overhead,
// concurrency-safe tracer threaded through the whole Scam-V pipeline.
//
// Three consumers hang off one Tracer:
//
//   - a JSONL trace writer (scamv -trace run.jsonl) recording one line per
//     pipeline span, per solver query (with SAT counter deltas, blast-cache
//     hits/misses, and Ackermann expansion counts), and per experiment
//     verdict — reloadable by ReadTrace for offline latency analysis;
//   - live aggregates (Snapshot) feeding the periodic progress line on
//     stderr and the expvar/pprof debug endpoint;
//   - per-stage and per-query latency histograms (fixed log2 buckets, no
//     floats in the hot path).
//
// A nil *Tracer is fully functional and free: every method starts with a
// single pointer check, so the disabled pipeline pays one compare-and-branch
// per instrumentation site and nothing else. The trace file format follows
// the durability patterns of internal/logdb: buffered writes behind a mutex,
// Close flushes and closes joining both errors, and the reader rejects a
// torn final line by naming it.
package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion is the trace schema version stamped on every record.
// Version 1: kinds "campaign", "span", "query", "verdict" with the fields
// documented on Record. Version 2 adds the resilience kinds "retry",
// "timeout", "skip", "quarantine", "breaker" (new fields Reason, Attempt,
// From, To). Version 3 added the portfolio and shape-cache fields "winner"
// and "shared_clauses" on "query" records and the "shape" kind; those
// solving modes are gone, so nothing writes them any more and readers
// ignore them in older traces. v1 and v2 traces remain loadable. Version 4
// adds the "platform" kind: one record per (platform, test) of a matrix
// campaign, carrying the platform name in Name alongside the verdict fields.
// Version 5 adds the crash-safety kinds "resume" (a campaign restored a
// journaled prefix: Name, Programs = restored count) and "checkpoint" (a
// durable checkpoint was written: Programs = programs covered). Readers
// reject records from a newer schema.
const SchemaVersion = 5

// Record is one JSONL trace line. One flat struct serves all kinds; fields
// not meaningful for a kind are zero and omitted from the encoding (their
// decoded zero values are identical, so the round trip is lossless).
//
// Kinds:
//
//	campaign  a campaign started: Name, Programs (expected count)
//	span      one pipeline stage finished for one program: Stage, Prog, DurUS
//	query     one solver query: Prog, PathA/PathB/Class/Slot, Status, DurUS,
//	          plus the solver-effort deltas of this query (Conflicts,
//	          Decisions, Propagations, BlastHits, BlastMisses, AckReads)
//	verdict   one executed test case: Prog, Test, Verdict, DurUS
//	retry     one platform retry: Prog, Test, Attempt (failing attempt,
//	          0-based), Reason
//	timeout   one platform attempt hit its deadline: Prog, Test, Attempt
//	skip      one test abandoned under FailPolicy Degrade: Prog, Test, Reason
//	quarantine one program quarantined: Prog, Reason
//	breaker   one circuit-breaker transition: Name, From, To
//	platform  one platform's verdict for one test of a matrix campaign:
//	          Name (platform), Prog, Test, Verdict, DurUS
//	resume    a campaign restored a journaled prefix on startup: Name
//	          (campaign), Programs (restored program count)
//	checkpoint a durable campaign checkpoint was written: Programs
//	          (programs covered by the checkpoint)
type Record struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// TSus is microseconds since the tracer started (monotonic).
	TSus int64 `json:"ts_us"`

	Name     string `json:"name,omitempty"`
	Programs int    `json:"programs,omitempty"`

	Prog  int    `json:"prog,omitempty"`
	Stage string `json:"stage,omitempty"`
	DurUS int64  `json:"dur_us,omitempty"`

	Test    int    `json:"test,omitempty"`
	Verdict string `json:"verdict,omitempty"`

	PathA  int    `json:"path_a,omitempty"`
	PathB  int    `json:"path_b,omitempty"`
	Class  int    `json:"class,omitempty"`
	Slot   int    `json:"slot,omitempty"`
	Status string `json:"status,omitempty"`

	Conflicts    int64 `json:"conflicts,omitempty"`
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	BlastHits    int64 `json:"blast_hits,omitempty"`
	BlastMisses  int64 `json:"blast_misses,omitempty"`
	AckReads     int64 `json:"ack_reads,omitempty"`

	// Resilience fields (schema v2).
	Reason  string `json:"reason,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
}

// QueryEvent is one solver query as reported by the test-case generator.
// The counter fields are deltas over this query, not cumulative totals.
type QueryEvent struct {
	Prog   int
	PathA  int
	PathB  int
	Class  int
	Slot   int
	Status string
	Dur    time.Duration

	Conflicts    int64
	Decisions    int64
	Propagations int64
	BlastHits    int64
	BlastMisses  int64
	AckReads     int64
}

// stageAgg accumulates span observations for one stage name.
type stageAgg struct {
	name string
	hist Histogram
}

// Tracer collects spans, query events, and verdicts. All methods are safe
// for concurrent use and safe on a nil receiver (the disabled fast path).
type Tracer struct {
	start time.Time

	mu     sync.Mutex // guards w, closer, werr
	w      *bufio.Writer
	closer io.Closer
	werr   error // first write error, sticky

	// Aggregates for the progress line and the debug endpoint.
	totalPrograms   atomic.Int64
	programs        atomic.Int64
	experiments     atomic.Int64
	counterexamples atomic.Int64
	inconclusive    atomic.Int64

	queries      atomic.Int64
	queryHist    Histogram
	conflicts    atomic.Int64
	decisions    atomic.Int64
	propagations atomic.Int64
	blastHits    atomic.Int64
	blastMisses  atomic.Int64
	ackReads     atomic.Int64

	// Resilience counters (schema v2 kinds).
	retries      atomic.Int64
	timeouts     atomic.Int64
	skips        atomic.Int64
	quarantines  atomic.Int64
	breakerTrips atomic.Int64

	// Crash-safety counters (schema v5).
	resumedPrograms atomic.Int64
	checkpoints     atomic.Int64

	// Per-platform verdict aggregates of a matrix campaign (schema v4).
	platMu    sync.Mutex
	platforms map[string]*PlatformCount

	stagesMu sync.RWMutex
	stages   map[string]*stageAgg
	order    []*stageAgg // first-seen order

	// Observability plane (no schema impact): the optional flight recorder
	// ring, the live pipeline-metrics source registered by the staged
	// engine, and the actually-bound debug address of -debug-addr.
	fr atomic.Pointer[FlightRecorder]

	pipeMu  sync.Mutex
	pipeSrc func() []PipelineStage

	addrMu    sync.Mutex
	debugAddr string
}

// PipelineStage is one live pipeline-stage snapshot: the staged engine's
// busy/wait/stall counters surfaced while the campaign runs (Result.Stages
// only materializes at the end). Wait is input starvation, Stall is output
// backpressure — the pair that ranks the bottleneck stage live.
type PipelineStage struct {
	Name    string
	Workers int
	In      int64
	Out     int64
	Busy    time.Duration
	Wait    time.Duration
	Stall   time.Duration
}

// SetPipelineSource registers a live per-stage metrics provider (the staged
// engine's coordinator). The source is called on every Snapshot; it must be
// safe for concurrent use. A later campaign on the same tracer replaces the
// source; the last campaign's pipeline stays scrapeable after it finishes.
func (t *Tracer) SetPipelineSource(fn func() []PipelineStage) {
	if t == nil {
		return
	}
	t.pipeMu.Lock()
	t.pipeSrc = fn
	t.pipeMu.Unlock()
}

// pipelineSnapshot reads the live pipeline metrics, if a source is set.
func (t *Tracer) pipelineSnapshot() []PipelineStage {
	if t == nil {
		return nil
	}
	t.pipeMu.Lock()
	fn := t.pipeSrc
	t.pipeMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// SetDebugAddr records the actually-bound address of the -debug-addr
// endpoint (meaningful with ":0", where the kernel picks the port), so
// tests and scripts can scrape ephemeral ports via Tracer or Result.
func (t *Tracer) SetDebugAddr(addr string) {
	if t == nil {
		return
	}
	t.addrMu.Lock()
	t.debugAddr = addr
	t.addrMu.Unlock()
}

// DebugAddr returns the bound debug-endpoint address ("" when none serves).
func (t *Tracer) DebugAddr() string {
	if t == nil {
		return ""
	}
	t.addrMu.Lock()
	defer t.addrMu.Unlock()
	return t.debugAddr
}

// New returns a tracer writing JSONL records to w. A nil w yields an
// aggregates-only tracer: spans and queries update the live counters and
// histograms but no trace is written — the mode behind -progress and
// -debug-addr without -trace.
func New(w io.Writer) *Tracer {
	t := &Tracer{start: time.Now(), stages: make(map[string]*stageAgg)}
	if w != nil {
		t.w = bufio.NewWriter(w)
		if c, ok := w.(io.Closer); ok {
			t.closer = c
		}
	}
	return t
}

// Create opens (or truncates) a trace file and returns a tracer writing
// to it. Close flushes and closes the file.
func Create(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return New(f), nil
}

// Enabled reports whether the tracer records anything. It is the one
// pointer check instrumentation sites pay when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// now returns microseconds since the tracer started.
func (t *Tracer) now() int64 { return time.Since(t.start).Microseconds() }

// record stamps the schema version on one record, feeds it to the flight
// recorder's ring (when one is attached), and appends it to the trace file
// (when one is open). Every event method funnels through here, so the ring
// sees exactly the records the trace would.
func (t *Tracer) record(rec *Record) {
	rec.V = SchemaVersion
	if fr := t.fr.Load(); fr != nil {
		fr.add(rec)
	}
	t.write(rec)
}

// write appends one record. Marshalling happens outside the lock; the first
// write error is kept and reported by Err and Close.
func (t *Tracer) write(rec *Record) {
	if t.w == nil {
		return
	}
	b, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.werr != nil {
		return
	}
	if err != nil {
		t.werr = fmt.Errorf("telemetry: %w", err)
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.werr = fmt.Errorf("telemetry: %w", err)
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.werr = fmt.Errorf("telemetry: %w", err)
	}
}

// BeginCampaign records a campaign-start record and adds the expected
// program count to the progress denominator. Multiple campaigns may share
// one tracer (cmd/scamv runs several per invocation).
func (t *Tracer) BeginCampaign(name string, programs int) {
	if t == nil {
		return
	}
	t.totalPrograms.Add(int64(programs))
	t.record(&Record{Kind: "campaign", TSus: t.now(), Name: name, Programs: programs})
}

// stage returns (creating if needed) the aggregate for a stage name.
func (t *Tracer) stage(name string) *stageAgg {
	t.stagesMu.RLock()
	a := t.stages[name]
	t.stagesMu.RUnlock()
	if a != nil {
		return a
	}
	t.stagesMu.Lock()
	defer t.stagesMu.Unlock()
	if a = t.stages[name]; a == nil {
		a = &stageAgg{name: name}
		t.stages[name] = a
		t.order = append(t.order, a)
	}
	return a
}

// Span records one pipeline stage's work on one program, measured from
// start to now. Call it at the end of the stage body:
//
//	t0 := time.Now()
//	... stage work ...
//	tr.Span("testgen", p, t0)
func (t *Tracer) Span(stage string, prog int, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.stage(stage).hist.Observe(d)
	t.record(&Record{Kind: "span", TSus: t.now(), Prog: prog, Stage: stage, DurUS: d.Microseconds()})
}

// Query records one solver query with its effort deltas.
func (t *Tracer) Query(ev QueryEvent) {
	if t == nil {
		return
	}
	t.queries.Add(1)
	t.queryHist.Observe(ev.Dur)
	t.conflicts.Add(ev.Conflicts)
	t.decisions.Add(ev.Decisions)
	t.propagations.Add(ev.Propagations)
	t.blastHits.Add(ev.BlastHits)
	t.blastMisses.Add(ev.BlastMisses)
	t.ackReads.Add(ev.AckReads)
	t.record(&Record{
		Kind: "query", TSus: t.now(), Prog: ev.Prog,
		PathA: ev.PathA, PathB: ev.PathB, Class: ev.Class, Slot: ev.Slot,
		Status: ev.Status, DurUS: ev.Dur.Microseconds(),
		Conflicts: ev.Conflicts, Decisions: ev.Decisions, Propagations: ev.Propagations,
		BlastHits: ev.BlastHits, BlastMisses: ev.BlastMisses, AckReads: ev.AckReads,
	})
	if fr := t.fr.Load(); fr != nil {
		fr.noteQuery(ev.Dur, &t.queryHist)
	}
}

// Verdict records one executed test case's classification and execution time.
func (t *Tracer) Verdict(prog, test int, verdict string, dur time.Duration) {
	if t == nil {
		return
	}
	t.experiments.Add(1)
	switch verdict {
	case "counterexample":
		t.counterexamples.Add(1)
	case "inconclusive":
		t.inconclusive.Add(1)
	}
	t.record(&Record{Kind: "verdict", TSus: t.now(), Prog: prog, Test: test,
		Verdict: verdict, DurUS: dur.Microseconds()})
}

// PlatformVerdict records one platform's verdict for one test case of a
// matrix campaign. Unlike Verdict it does not bump the campaign experiment
// counters — the primary platform's Verdict call already did — it feeds the
// per-platform aggregates and the v4 "platform" trace kind.
func (t *Tracer) PlatformVerdict(prog, test int, platform, verdict string, dur time.Duration) {
	if t == nil {
		return
	}
	t.platMu.Lock()
	if t.platforms == nil {
		t.platforms = make(map[string]*PlatformCount)
	}
	pc := t.platforms[platform]
	if pc == nil {
		pc = &PlatformCount{Name: platform}
		t.platforms[platform] = pc
	}
	pc.Experiments++
	switch verdict {
	case "counterexample":
		pc.Counterexamples++
	case "inconclusive":
		pc.Inconclusive++
	}
	t.platMu.Unlock()
	t.record(&Record{Kind: "platform", TSus: t.now(), Prog: prog, Test: test,
		Name: platform, Verdict: verdict, DurUS: dur.Microseconds()})
}

// Retry records one platform-execution retry: attempt (0-based) failed with
// reason and will be re-attempted after backoff.
func (t *Tracer) Retry(prog, test, attempt int, reason string) {
	if t == nil {
		return
	}
	t.retries.Add(1)
	t.record(&Record{Kind: "retry", TSus: t.now(), Prog: prog, Test: test,
		Attempt: attempt, Reason: reason})
}

// Timeout records one platform attempt exceeding its per-Execute deadline.
func (t *Tracer) Timeout(prog, test, attempt int) {
	if t == nil {
		return
	}
	t.timeouts.Add(1)
	t.record(&Record{Kind: "timeout", TSus: t.now(), Prog: prog, Test: test, Attempt: attempt})
}

// Skip records one test case abandoned under FailPolicy Degrade.
func (t *Tracer) Skip(prog, test int, reason string) {
	if t == nil {
		return
	}
	t.skips.Add(1)
	t.record(&Record{Kind: "skip", TSus: t.now(), Prog: prog, Test: test, Reason: reason})
}

// Quarantine records one program being quarantined after consecutive
// failures.
func (t *Tracer) Quarantine(prog int, reason string) {
	if t == nil {
		return
	}
	t.quarantines.Add(1)
	t.record(&Record{Kind: "quarantine", TSus: t.now(), Prog: prog, Reason: reason})
}

// Breaker records one circuit-breaker state transition; transitions into the
// open state count as trips.
func (t *Tracer) Breaker(name, from, to string) {
	if t == nil {
		return
	}
	if to == "open" {
		t.breakerTrips.Add(1)
		if fr := t.fr.Load(); fr != nil {
			fr.noteBreaker(name)
		}
	}
	t.record(&Record{Kind: "breaker", TSus: t.now(), Name: name, From: from, To: to})
}

// Resume records a campaign restoring a journaled prefix of programs
// completed before a restart. The restored count feeds both the resumed
// counter and the completed-programs counter, so the progress line starts at
// N/P instead of replaying from zero.
func (t *Tracer) Resume(name string, programs int) {
	if t == nil {
		return
	}
	t.resumedPrograms.Add(int64(programs))
	t.programs.Add(int64(programs))
	t.record(&Record{Kind: "resume", TSus: t.now(), Name: name, Programs: programs})
}

// Checkpoint records one durable campaign checkpoint covering the first
// programs completed programs.
func (t *Tracer) Checkpoint(programs int) {
	if t == nil {
		return
	}
	t.checkpoints.Add(1)
	t.record(&Record{Kind: "checkpoint", TSus: t.now(), Programs: programs})
}

// ProgramDone bumps the completed-program counter behind the progress line.
func (t *Tracer) ProgramDone() {
	if t == nil {
		return
	}
	t.programs.Add(1)
}

// PlatformCount is one matrix platform's live verdict aggregate.
type PlatformCount struct {
	Name            string
	Experiments     int64
	Counterexamples int64
	Inconclusive    int64
}

// StageCount is one stage's live aggregate in a Counters snapshot.
type StageCount struct {
	Name  string
	Count int64
	Busy  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Counters is a point-in-time copy of the tracer's aggregates, consumed by
// the progress sampler and the debug endpoint.
type Counters struct {
	Elapsed time.Duration

	TotalPrograms   int64
	Programs        int64
	Experiments     int64
	Counterexamples int64
	Inconclusive    int64

	Queries      int64
	QueryTime    time.Duration
	QueryP50     time.Duration
	QueryP95     time.Duration
	QueryP99     time.Duration
	Conflicts    int64
	Decisions    int64
	Propagations int64
	BlastHits    int64
	BlastMisses  int64
	AckReads     int64

	Retries      int64
	Timeouts     int64
	Skips        int64
	Quarantines  int64
	BreakerTrips int64

	// ResumedPrograms counts programs restored from campaign journals
	// (included in Programs); Checkpoints counts durable checkpoints written.
	ResumedPrograms int64
	Checkpoints     int64

	// Platforms holds per-platform verdict aggregates of matrix campaigns,
	// sorted by platform name; empty for single-platform campaigns.
	Platforms []PlatformCount

	Stages []StageCount // first-seen (pipeline) order

	// Pipeline holds the staged engine's live per-stage busy/wait/stall
	// metrics when a campaign registered a source via SetPipelineSource;
	// nil for idle tracers. Unlike Stages (span
	// durations), Pipeline carries starvation and backpressure.
	Pipeline []PipelineStage
}

// Snapshot copies the live aggregates. Safe to call while the campaign runs.
func (t *Tracer) Snapshot() Counters {
	if t == nil {
		return Counters{}
	}
	c := Counters{
		Elapsed:         time.Since(t.start),
		TotalPrograms:   t.totalPrograms.Load(),
		Programs:        t.programs.Load(),
		Experiments:     t.experiments.Load(),
		Counterexamples: t.counterexamples.Load(),
		Inconclusive:    t.inconclusive.Load(),
		Queries:         t.queries.Load(),
		QueryTime:       t.queryHist.Sum(),
		Conflicts:       t.conflicts.Load(),
		Decisions:       t.decisions.Load(),
		Propagations:    t.propagations.Load(),
		BlastHits:       t.blastHits.Load(),
		BlastMisses:     t.blastMisses.Load(),
		AckReads:        t.ackReads.Load(),
		Retries:         t.retries.Load(),
		Timeouts:        t.timeouts.Load(),
		Skips:           t.skips.Load(),
		Quarantines:     t.quarantines.Load(),
		BreakerTrips:    t.breakerTrips.Load(),
		ResumedPrograms: t.resumedPrograms.Load(),
		Checkpoints:     t.checkpoints.Load(),
	}
	t.platMu.Lock()
	for _, pc := range t.platforms {
		c.Platforms = append(c.Platforms, *pc)
	}
	t.platMu.Unlock()
	sort.Slice(c.Platforms, func(i, j int) bool { return c.Platforms[i].Name < c.Platforms[j].Name })
	c.QueryP50, c.QueryP95, c.QueryP99 = t.queryHist.Quantiles()
	t.stagesMu.RLock()
	order := append([]*stageAgg(nil), t.order...)
	t.stagesMu.RUnlock()
	for _, a := range order {
		sc := StageCount{Name: a.name, Count: a.hist.Count(), Busy: a.hist.Sum()}
		sc.P50, sc.P95, sc.P99 = a.hist.Quantiles()
		c.Stages = append(c.Stages, sc)
	}
	c.Pipeline = t.pipelineSnapshot()
	return c
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.werr
}

// Close flushes the trace and closes the underlying file, if any. Like
// logdb.Close, the file is closed even when the flush fails and both errors
// are joined — either alone can mean a truncated trace.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ferr, cerr error
	if t.w != nil {
		if err := t.w.Flush(); err != nil {
			ferr = fmt.Errorf("telemetry: flush: %w", err)
		}
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil {
			cerr = fmt.Errorf("telemetry: close: %w", err)
		}
		t.closer = nil
	}
	return errors.Join(t.werr, ferr, cerr)
}

// ReadTrace decodes trace records from a reader. Mirroring logdb.Read, a
// torn final line (a crash mid-append) is rejected with an error naming the
// line rather than silently dropped or misparsed; records from a newer
// schema version are rejected too.
func ReadTrace(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		if rec.V > SchemaVersion {
			return nil, fmt.Errorf("telemetry: line %d: trace schema v%d newer than supported v%d",
				line, rec.V, SchemaVersion)
		}
		if rec.Kind == "" {
			return nil, fmt.Errorf("telemetry: line %d: record without kind", line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return out, nil
}

// ReadTraceTolerant decodes trace records like ReadTrace but tolerates a
// torn final line (a crash or kill mid-append): instead of failing, the torn
// line is dropped and counted, so -report can still analyse the rest of the
// trace while warning the user. Malformed lines before the final one, kindless
// records, and newer-schema records remain hard errors — those mean
// corruption, not truncation.
func ReadTraceTolerant(r io.Reader) (recs []Record, torn int, err error) {
	var lines [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("telemetry: %w", err)
	}
	last := -1 // index of the last non-empty line
	for i := len(lines) - 1; i >= 0; i-- {
		if len(lines[i]) > 0 {
			last = i
			break
		}
	}
	for i, b := range lines {
		if len(b) == 0 {
			continue
		}
		var rec Record
		if uerr := json.Unmarshal(b, &rec); uerr != nil {
			if i == last {
				torn++
				break
			}
			return nil, 0, fmt.Errorf("telemetry: line %d: %w", i+1, uerr)
		}
		if rec.V > SchemaVersion {
			return nil, 0, fmt.Errorf("telemetry: line %d: trace schema v%d newer than supported v%d",
				i+1, rec.V, SchemaVersion)
		}
		if rec.Kind == "" {
			return nil, 0, fmt.Errorf("telemetry: line %d: record without kind", i+1)
		}
		recs = append(recs, rec)
	}
	return recs, torn, nil
}

// LoadTraceTolerant reads a trace file via ReadTraceTolerant.
func LoadTraceTolerant(path string) ([]Record, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	return ReadTraceTolerant(f)
}

// LoadTrace reads all records from a trace file.
func LoadTrace(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}

// SortRecords orders records by timestamp, then by kind for equal stamps —
// a stable order for golden tests over concurrent campaigns.
func SortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].TSus != recs[j].TSus {
			return recs[i].TSus < recs[j].TSus
		}
		return recs[i].Kind < recs[j].Kind
	})
}
