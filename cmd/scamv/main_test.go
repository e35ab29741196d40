package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	os.Stdout = saved
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestReportLoadsRemovedModeTrace: -report and -report-diff render a
// committed schema-v5 trace that still carries the winner, shared_clauses
// and shape records of the removed portfolio and shape-cache modes.
func TestReportLoadsRemovedModeTrace(t *testing.T) {
	trace := filepath.Join("..", "..", "internal", "analysis", "testdata", "v5_removed_modes.jsonl")
	out := captureStdout(t, func() error { return analyse(trace, true) })
	if !strings.Contains(out, "trace: 2 campaigns") || !strings.Contains(out, "19 queries") {
		t.Errorf("-report output:\n%s", out)
	}
	diff := captureStdout(t, func() error { return reportDiff(trace, trace, true) })
	if !strings.Contains(diff, "old: ") || !strings.Contains(diff, "new: ") {
		t.Errorf("-report-diff output:\n%s", diff)
	}
}
