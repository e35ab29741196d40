package scamv_test

import (
	"fmt"
	"os"
	"testing"

	"scamv"
	"scamv/internal/journal"
)

// TestMain doubles as the crash child of the subprocess crash-safety tests:
// when SCAMV_CRASH_CHILD names a checkpoint directory, the process runs one
// journaled campaign and exits instead of running the test suite — giving
// the parent test a real process to SIGKILL or SIGINT mid-campaign.
func TestMain(m *testing.M) {
	if dir := os.Getenv("SCAMV_CRASH_CHILD"); dir != "" {
		os.Exit(crashChild(dir))
	}
	os.Exit(m.Run())
}

// crashChild runs the crash campaign with its journal in dir, resuming any
// prior state (a fresh directory degrades to a fresh start, so the same
// child serves first runs, post-kill resumes, and post-drain resumes).
// Exit codes mirror cmd/scamv: 0 complete, 3 drained (resumable), 1 error,
// 130 on a second interrupt.
func crashChild(dir string) int {
	e := crashCampaign()
	if os.Getenv("SCAMV_CRASH_ARM") == "1" {
		e.Drain = scamv.ArmShutdown(nil, func() { os.Exit(130) })
	}
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true, Every: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 1
	}
	e.Journal = j
	r, err := scamv.Run(e)
	cerr := j.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 1
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "crash child:", cerr)
		return 1
	}
	if r.Drained {
		return 3
	}
	return 0
}
