package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// RenderProgress formats one live progress line from two successive counter
// snapshots taken dt apart: programs done, experiments, counterexamples,
// query throughput over the interval, and the per-stage busy share of the
// interval's pipeline work.
//
// With no stage samples yet (an idle tracer, or a campaign before its first
// stage body finished) the line carries the program-level counts alone.
func RenderProgress(cur, prev Counters, dt time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "progs %d/%d", cur.Programs, cur.TotalPrograms)
	// Crash-safety counters appear only for resumed/checkpointed campaigns.
	if cur.ResumedPrograms > 0 {
		fmt.Fprintf(&sb, " (%d resumed)", cur.ResumedPrograms)
	}
	fmt.Fprintf(&sb, "  exps %d", cur.Experiments)
	fmt.Fprintf(&sb, "  cex %d", cur.Counterexamples)
	if cur.Inconclusive > 0 {
		fmt.Fprintf(&sb, "  inconcl %d", cur.Inconclusive)
	}
	qps := 0.0
	if dt > 0 {
		qps = float64(cur.Queries-prev.Queries) / dt.Seconds()
	}
	fmt.Fprintf(&sb, "  queries %d (%.1f/s)", cur.Queries, qps)
	// Resilience counters appear only once something went wrong: a healthy
	// campaign's progress line is unchanged.
	if cur.Retries > 0 || cur.Timeouts > 0 {
		fmt.Fprintf(&sb, "  retries %d", cur.Retries)
		if cur.Timeouts > 0 {
			fmt.Fprintf(&sb, " (%d timeouts)", cur.Timeouts)
		}
	}
	if cur.Skips > 0 {
		fmt.Fprintf(&sb, "  skips %d", cur.Skips)
	}
	if cur.Quarantines > 0 {
		fmt.Fprintf(&sb, "  quarantined %d", cur.Quarantines)
	}
	if cur.BreakerTrips > 0 {
		fmt.Fprintf(&sb, "  breaker-trips %d", cur.BreakerTrips)
	}
	if cur.Checkpoints > 0 {
		fmt.Fprintf(&sb, "  ckpts %d", cur.Checkpoints)
	}

	// Busy share over the interval: how the pipeline's working time divided
	// across stages since the previous tick. Relative shares rank the
	// bottleneck without knowing per-stage worker counts.
	deltas := make(map[string]time.Duration, len(prev.Stages))
	for _, s := range prev.Stages {
		deltas[s.Name] = s.Busy
	}
	var total time.Duration
	type share struct {
		name string
		busy time.Duration
	}
	var shares []share
	for _, s := range cur.Stages {
		d := s.Busy - deltas[s.Name]
		if d < 0 {
			d = 0
		}
		total += d
		shares = append(shares, share{s.Name, d})
	}
	if total > 0 {
		sb.WriteString("  busy%")
		for _, s := range shares {
			pct := int(100 * s.busy / total)
			if pct == 0 {
				continue
			}
			fmt.Fprintf(&sb, " %s %d", s.name, pct)
		}
	}
	return sb.String()
}

// StartProgress launches a sampler goroutine that renders the progress line
// to w every interval (1s when interval <= 0), overwriting in place with a
// carriage return. The returned stop function halts the sampler, prints one
// final line, and terminates it with a newline; it is idempotent.
func StartProgress(w io.Writer, t *Tracer, interval time.Duration) (stop func()) {
	if t == nil || w == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		prev := t.Snapshot()
		prevAt := time.Now()
		width := 0
		emit := func(final bool) {
			cur := t.Snapshot()
			now := time.Now()
			line := RenderProgress(cur, prev, now.Sub(prevAt))
			prev, prevAt = cur, now
			if pad := width - len(line); pad > 0 {
				line += strings.Repeat(" ", pad)
			} else {
				width = len(line)
			}
			end := "\r"
			if final {
				end = "\n"
			}
			fmt.Fprintf(w, "\r%s%s", line, end)
		}
		for {
			select {
			case <-tick.C:
				emit(false)
			case <-done:
				emit(true)
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
