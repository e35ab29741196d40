package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// validatePromText is a dependency-free Prometheus text-format (0.0.4)
// checker: every line must be a comment, HELP, TYPE, or a well-formed
// sample; samples must follow their family's TYPE line; histogram families
// must have ascending le edges, non-decreasing cumulative buckets, a +Inf
// bucket equal to _count, and a _sum series. It returns the parsed samples
// keyed by full series (name + sorted labels).
func validatePromText(t *testing.T, data []byte) map[string]float64 {
	t.Helper()
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe := regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)

	types := make(map[string]string) // family -> type
	samples := make(map[string]float64)
	type histSeries struct {
		le  float64
		cum float64
	}
	hists := make(map[string][]histSeries) // histogram family+labels -> buckets
	var curFamily string

	sc := bufio.NewScanner(bytes.NewReader(data))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", lineno, line)
			}
			if !nameRe.MatchString(parts[2]) {
				t.Fatalf("line %d: bad metric name %q", lineno, parts[2])
			}
			if parts[1] == "TYPE" {
				if _, dup := types[parts[2]]; dup {
					t.Fatalf("line %d: duplicate TYPE for %q", lineno, parts[2])
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown type %q", lineno, parts[3])
				}
				types[parts[2]] = parts[3]
				curFamily = parts[2]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		mm := sampleRe.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("line %d: malformed sample %q", lineno, line)
		}
		name, labelStr, valStr := mm[1], mm[3], mm[4]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", lineno, valStr, err)
		}
		// The sample must belong to the most recently typed family (the
		// format requires family grouping).
		family := name
		var isBucket, isSum, isCount bool
		if types[curFamily] == "histogram" {
			switch {
			case name == curFamily+"_bucket":
				family, isBucket = curFamily, true
			case name == curFamily+"_sum":
				family, isSum = curFamily, true
			case name == curFamily+"_count":
				family, isCount = curFamily, true
			}
		}
		if family != curFamily {
			t.Fatalf("line %d: sample %q outside its family group (current %q)", lineno, name, curFamily)
		}
		var le string
		var labels []string
		if labelStr != "" {
			for _, l := range strings.Split(labelStr, ",") {
				lm := labelRe.FindStringSubmatch(l)
				if lm == nil {
					t.Fatalf("line %d: malformed label %q", lineno, l)
				}
				if lm[1] == "le" {
					le = lm[2]
					continue
				}
				labels = append(labels, l)
			}
		}
		sort.Strings(labels)
		series := name + "{" + strings.Join(labels, ",") + "}"
		if isBucket {
			lef := 0.0
			if le == "+Inf" {
				lef = float64(1<<63 - 1)
			} else if lef, err = strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("line %d: bad le %q", lineno, le)
			}
			hists[series] = append(hists[series], histSeries{le: lef, cum: val})
			continue
		}
		if _, dup := samples[series+"|le="+le]; dup {
			t.Fatalf("line %d: duplicate series %q", lineno, series)
		}
		samples[series+"|le="+le] = val
		_ = isSum
		_ = isCount
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Histogram invariants per bucket series.
	for series, buckets := range hists {
		base := strings.TrimSuffix(strings.SplitN(series, "{", 2)[0], "_bucket")
		labels := "{" + strings.SplitN(series, "{", 2)[1]
		for i := 1; i < len(buckets); i++ {
			if buckets[i].le <= buckets[i-1].le {
				t.Fatalf("%s: le edges not ascending", series)
			}
			if buckets[i].cum < buckets[i-1].cum {
				t.Fatalf("%s: cumulative counts decrease", series)
			}
		}
		last := buckets[len(buckets)-1]
		if last.le != float64(1<<63-1) {
			t.Fatalf("%s: missing +Inf bucket", series)
		}
		count, ok := samples[base+"_count"+labels+"|le="]
		if !ok {
			t.Fatalf("%s: missing _count", series)
		}
		if count != last.cum {
			t.Fatalf("%s: +Inf bucket %v != count %v", series, last.cum, count)
		}
		if _, ok := samples[base+"_sum"+labels+"|le="]; !ok {
			t.Fatalf("%s: missing _sum", series)
		}
	}
	return samples
}

func TestWriteMetricsParsesAndCounts(t *testing.T) {
	tr := New(nil)
	tr.BeginCampaign("c", 4)
	tr.Span("testgen", 0, time.Now().Add(-3*time.Millisecond))
	tr.Span("execute", 0, time.Now().Add(-time.Millisecond))
	tr.Query(QueryEvent{Status: "sat", Dur: 2 * time.Millisecond,
		Conflicts: 7, Propagations: 90, BlastMisses: 1})
	tr.Query(QueryEvent{Status: "unsat", Dur: time.Millisecond})
	tr.Verdict(0, 0, "counterexample", time.Millisecond)
	tr.PlatformVerdict(0, 0, "a53", "counterexample", time.Millisecond)
	tr.PlatformVerdict(0, 0, "a72", "ok", time.Millisecond)
	tr.ProgramDone()
	tr.SetPipelineSource(func() []PipelineStage {
		return []PipelineStage{
			{Name: "testgen", Workers: 2, In: 1, Out: 1,
				Busy: 3 * time.Millisecond, Wait: time.Millisecond, Stall: 2 * time.Millisecond},
		}
	})

	var buf bytes.Buffer
	tr.WriteMetrics(&buf)
	samples := validatePromText(t, buf.Bytes())

	want := map[string]float64{
		"scamv_programs_expected{}|le=":                            4,
		"scamv_programs_completed_total{}|le=":                     1,
		"scamv_experiments_total{}|le=":                            1,
		"scamv_counterexamples_total{}|le=":                        1,
		"scamv_solver_queries_total{}|le=":                         2,
		"scamv_solver_conflicts_total{}|le=":                       7,
		"scamv_solver_propagations_total{}|le=":                    90,
		"scamv_blast_cache_misses_total{}|le=":                     1,
		`scamv_platform_counterexamples_total{platform="a53"}|le=`: 1,
		`scamv_platform_experiments_total{platform="a72"}|le=`:     1,
		`scamv_stage_items_in_total{stage="testgen"}|le=`:          1,
		`scamv_stage_workers{stage="testgen"}|le=`:                 2,
		`scamv_query_duration_seconds_count{}|le=`:                 2,
	}
	for series, v := range want {
		got, ok := samples[series]
		if !ok {
			t.Errorf("missing series %s", series)
		} else if got != v {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}
	if got := samples[`scamv_stage_stall_seconds_total{stage="testgen"}|le=`]; got != 0.002 {
		t.Errorf("stall seconds = %v, want 0.002", got)
	}

	// The per-stage histogram family must carry one bucket series per stage.
	for _, stage := range []string{"testgen", "execute"} {
		series := fmt.Sprintf(`scamv_stage_duration_seconds_count{stage=%q}|le=`, stage)
		if samples[series] != 1 {
			t.Errorf("missing stage histogram for %s: %v", stage, samples[series])
		}
	}
}

func TestWriteMetricsNilAndEmptyTracer(t *testing.T) {
	var buf bytes.Buffer
	(*Tracer)(nil).WriteMetrics(&buf)
	validatePromText(t, buf.Bytes())
	if !strings.Contains(buf.String(), "scamv_solver_queries_total 0") {
		t.Errorf("nil tracer should still render the core zero families:\n%s", buf.String())
	}

	buf.Reset()
	New(nil).WriteMetrics(&buf)
	validatePromText(t, buf.Bytes())
}

func TestMetricsEndpointContentType(t *testing.T) {
	tr := New(nil)
	tr.Query(QueryEvent{Status: "sat", Dur: time.Millisecond})
	var buf bytes.Buffer
	tr.WriteMetrics(&buf)
	validatePromText(t, buf.Bytes())
	if !strings.HasPrefix(MetricsContentType, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", MetricsContentType)
	}
}
