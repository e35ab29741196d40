// Package journal is the crash-safety spine of a validation campaign: a
// write-ahead journal of per-program completions plus periodic atomic
// checkpoint snapshots, the substrate behind scamv -checkpoint/-resume and
// the durability contract the distributed scamv-d workers will inherit.
//
// The design splits durability into two artifacts per campaign directory:
//
//   - journal.jsonl — the source of truth. One fsynced JSON line per
//     completed program, appended by the engines' in-order merge step, so
//     the journal always holds a contiguous prefix [0, N) of the campaign.
//     The file follows internal/logdb's torn-final-line contract: a crash
//     mid-append leaves at most one JSON-invalid trailing line, which the
//     resume loader drops (and truncates away before appending resumes).
//
//   - checkpoint.json — a compaction, not an authority. Every few appends
//     the full restored+appended record set is written via the
//     write-temp + fsync + rename + dir-fsync protocol, with the previous
//     checkpoint rotated to checkpoint.prev.json first. A torn checkpoint
//     (missing completeness marker, unparseable JSON) is detected and the
//     previous one — or the journal itself — is used instead. Checkpoints
//     exist so scamv-d supervisors can read campaign progress in one
//     bounded read instead of replaying an unbounded journal.
//
// Resume correctness rests on two properties the engines guarantee: results
// merge in strict ascending program order (so the journal is a prefix, and
// skipping its records is exactly "skip the first N programs"), and every
// per-program random stream is derived deterministically from the campaign
// seed (so the remaining programs reproduce bit-for-bit). See DESIGN.md §15
// for the full argument.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"scamv/internal/logdb"
)

// FS is the write-side filesystem seam of a campaign journal. Production
// code uses OSFS; internal/faultinject wraps it to inject ENOSPC, short
// writes, fsync failures, and torn renames, which is how the recovery paths
// get teeth tests instead of trust.
//
// Reads are deliberately not part of the seam: recovery reads whole files
// through the os package, because a fault during recovery is
// indistinguishable from real corruption and is surfaced the same way.
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so completed renames survive a crash.
	SyncDir(dir string) error
}

// File is the writable-file surface the journal needs: sequential writes,
// fsync, close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS. Filesystems that cannot sync directories report
// EINVAL; like logdb, that is treated as the platform's ceiling, not an
// error.
func (OSFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Version is the journal format version stamped on the header and the
// checkpoint envelope.
const Version = 1

const (
	journalFile  = "journal.jsonl"
	ckptFile     = "checkpoint.json"
	ckptPrevFile = "checkpoint.prev.json"
	ckptTmpFile  = "checkpoint.tmp"
)

// Skip mirrors scamv.Skip: one abandoned test case (or quarantined
// remainder) under FailPolicy Degrade, preserved across resume so the final
// Result's skip list equals an uninterrupted run's.
type Skip struct {
	Prog   int    `json:"prog"`
	Test   int    `json:"test"`
	Reason string `json:"reason"`
}

// PlatformTally is one program's contribution to one matrix-campaign
// platform row.
type PlatformTally struct {
	Experiments     int   `json:"experiments,omitempty"`
	Counterexamples int   `json:"counterexamples,omitempty"`
	Inconclusive    int   `json:"inconclusive,omitempty"`
	Skipped         int   `json:"skipped,omitempty"`
	ExeUS           int64 `json:"exe_us,omitempty"`
	Found           bool  `json:"found,omitempty"`
	FirstCETest     int   `json:"first_ce_test"`
}

// ProgramRecord is one journaled program completion: everything the merge
// step folds into the campaign Result, in durable form. Wall-clock fields
// are carried so resumed aggregate times reflect total work done, but they
// are exactly the fields the resume-equivalence contract excludes.
type ProgramRecord struct {
	Kind string `json:"kind"` // "program"
	Prog int    `json:"prog"`

	Experiments     int   `json:"experiments,omitempty"`
	Counterexamples int   `json:"counterexamples,omitempty"`
	Inconclusive    int   `json:"inconclusive,omitempty"`
	EncodeFallbacks int   `json:"encode_fallbacks,omitempty"`
	Queries         int   `json:"queries,omitempty"`
	GenUS           int64 `json:"gen_us,omitempty"`
	ExeUS           int64 `json:"exe_us,omitempty"`
	Found           bool  `json:"found,omitempty"`
	FirstCETest     int   `json:"first_ce_test"`
	TTCUS           int64 `json:"ttc_us,omitempty"`

	SkippedTests int    `json:"skipped_tests,omitempty"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	Skips        []Skip `json:"skips,omitempty"`
	Retries      int    `json:"retries,omitempty"`
	Timeouts     int    `json:"timeouts,omitempty"`

	Platforms []PlatformTally `json:"platforms,omitempty"`

	// Logs are the program's experiment-log records, re-emitted into
	// Experiment.Log on resume so the resumed log file equals an
	// uninterrupted run's.
	Logs []logdb.Record `json:"logs,omitempty"`
}

// header is the journal's first line: the campaign identity and the
// configuration fingerprint resume validates against.
type header struct {
	V           int    `json:"v"`
	Kind        string `json:"kind"` // "header"
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
}

// checkpointEnvelope is the checkpoint.json shape. Complete is the
// completeness marker: it is the last field emitted, so a checkpoint torn by
// a crash mid-write (on filesystems that expose renames of unsynced files,
// or under injected torn-rename faults) decodes with Complete == false —
// or not at all — and is rejected in favor of the previous checkpoint.
type checkpointEnvelope struct {
	V           int             `json:"v"`
	Campaign    string          `json:"campaign"`
	Fingerprint string          `json:"fingerprint"`
	Programs    []ProgramRecord `json:"programs"`
	Complete    bool            `json:"complete"`
}

// Options configures Open.
type Options struct {
	// Resume loads existing campaign state instead of truncating it. With no
	// prior state on disk, a Resume open degrades to a fresh start, so one
	// flag serves first runs and re-runs alike.
	Resume bool
	// Every is the auto-checkpoint period in appended programs (0 = the
	// default of 8; negative = only explicit Checkpoint calls).
	Every int
	// FS overrides the filesystem (nil = OSFS). The fault-injection seam.
	FS FS
}

// Campaign is one campaign's open journal. Append/Checkpoint/Close are safe
// for concurrent use, though the engines call Append from the single
// in-order merge goroutine. Write errors are sticky, like logdb's: after a
// failed append or checkpoint every subsequent mutation returns the first
// error, so a half-written line is never spliced.
type Campaign struct {
	dir   string
	fs    FS
	every int

	mu       sync.Mutex
	f        File
	hdr      header
	begun    bool
	restored []ProgramRecord
	all      []ProgramRecord // restored + appended, checkpoint material
	next     int             // next expected program index
	sinceCk  int
	ckpts    int
	werr     error
}

// Sanitize maps a campaign name to a filesystem-safe directory component:
// every byte outside [A-Za-z0-9._-] becomes '_' (campaign names contain '/',
// e.g. "Mpart-.../refined").
func Sanitize(name string) string {
	if name == "" {
		return "campaign"
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Open prepares the journal for one campaign under dir (the directory given
// to -checkpoint/-resume; each campaign gets the subdirectory
// dir/Sanitize(name)). With Options.Resume, existing state is loaded:
// the newest intact checkpoint and the journal are reconciled, a torn
// trailing journal line is truncated away, and Restored returns the
// recovered prefix once Begin has validated the fingerprint.
func Open(dir, name string, opts Options) (*Campaign, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	every := opts.Every
	if every == 0 {
		every = 8
	}
	cdir := filepath.Join(dir, Sanitize(name))
	if err := fsys.MkdirAll(cdir); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	c := &Campaign{dir: cdir, fs: fsys, every: every}
	if !opts.Resume {
		// Fresh start: drop stale state from any earlier run of this
		// campaign so a later -resume cannot mix runs.
		for _, stale := range []string{ckptFile, ckptPrevFile, ckptTmpFile} {
			if err := fsys.Remove(filepath.Join(cdir, stale)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("journal: %w", err)
			}
		}
		f, err := fsys.Create(filepath.Join(cdir, journalFile))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		c.f = f
		return c, nil
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// recover loads resume state: journal first (source of truth), checkpoint as
// the bounded-read fallback, longest intact prefix wins.
func (c *Campaign) recover() error {
	jPath := filepath.Join(c.dir, journalFile)
	jHdr, jRecs, validLen, jErr := loadJournal(jPath)
	if jErr != nil {
		return jErr
	}
	hdr := jHdr
	ck, _ := loadCheckpoint(c.dir)
	if hdr == nil && ck != nil {
		hdr = &header{V: ck.V, Kind: "header", Campaign: ck.Campaign, Fingerprint: ck.Fingerprint}
	}
	if hdr == nil {
		// No prior state at all: degrade to a fresh start.
		f, err := c.fs.Create(jPath)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		c.f = f
		return nil
	}
	restored := jRecs
	if ck != nil {
		if ck.Fingerprint != hdr.Fingerprint {
			return fmt.Errorf("journal: checkpoint fingerprint does not match journal header (delete %s to discard)", c.dir)
		}
		if len(ck.Programs) > len(restored) {
			// The checkpoint outlived the journal (journal deleted or torn
			// beyond its coverage): adopt the checkpoint's longer prefix.
			restored = ck.Programs
		}
	}
	for i := range restored {
		if restored[i].Prog != i {
			return fmt.Errorf("journal: %s: non-contiguous program records (record %d has prog %d)", c.dir, i, restored[i].Prog)
		}
	}
	c.hdr = *hdr
	c.restored = restored
	c.all = append(c.all, restored...)
	c.next = len(restored)
	// Re-open the journal for appending. When the on-disk journal does not
	// already equal the restored prefix (torn tail, missing header, or a
	// checkpoint ahead of it), rewrite it atomically first so appended
	// records always extend a clean prefix.
	if jHdr != nil && len(restored) == len(jRecs) {
		if st, err := os.Stat(jPath); err == nil && st.Size() > validLen {
			if err := c.fs.Truncate(jPath, validLen); err != nil {
				return fmt.Errorf("journal: truncate torn tail: %w", err)
			}
		}
	} else {
		var buf bytes.Buffer
		hb, err := json.Marshal(c.hdr)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		buf.Write(hb)
		buf.WriteByte('\n')
		for i := range restored {
			rb, err := json.Marshal(&restored[i])
			if err != nil {
				return fmt.Errorf("journal: %w", err)
			}
			buf.Write(rb)
			buf.WriteByte('\n')
		}
		if err := c.atomicWrite(journalFile, buf.Bytes()); err != nil {
			return err
		}
	}
	f, err := c.fs.OpenAppend(jPath)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	c.f = f
	return nil
}

// loadJournal reads the journal tolerantly: header line, then program
// records. The torn-final-line contract of logdb applies — a JSON-invalid
// trailing chunk is dropped (validLen excludes it so the caller can truncate
// it away); an invalid line before the end is hard corruption.
func loadJournal(path string) (hdr *header, recs []ProgramRecord, validLen int64, err error) {
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, nil, 0, nil
		}
		return nil, nil, 0, fmt.Errorf("journal: %w", rerr)
	}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line := data
		terminated := nl >= 0
		if terminated {
			line = data[:nl]
			data = data[nl+1:]
		} else {
			data = nil
		}
		lineLen := int64(len(line))
		if terminated {
			lineLen++
		}
		if len(bytes.TrimSpace(line)) == 0 {
			off += lineLen
			continue
		}
		if !json.Valid(line) {
			if len(data) == 0 {
				// Torn final line: a crash mid-append. Drop it.
				return hdr, recs, off, nil
			}
			return nil, nil, 0, fmt.Errorf("journal: %s: corrupt line at byte %d", path, off)
		}
		if hdr == nil {
			var h header
			if uerr := json.Unmarshal(line, &h); uerr != nil || h.Kind != "header" {
				return nil, nil, 0, fmt.Errorf("journal: %s: first line is not a journal header", path)
			}
			if h.V > Version {
				return nil, nil, 0, fmt.Errorf("journal: %s: format v%d newer than supported v%d", path, h.V, Version)
			}
			hdr = &h
		} else {
			var rec ProgramRecord
			if uerr := json.Unmarshal(line, &rec); uerr != nil || rec.Kind != "program" {
				return nil, nil, 0, fmt.Errorf("journal: %s: bad program record at byte %d", path, off)
			}
			recs = append(recs, rec)
		}
		off += lineLen
	}
	return hdr, recs, off, nil
}

// loadCheckpoint returns the newest intact checkpoint: checkpoint.json if it
// parses and carries the completeness marker, else checkpoint.prev.json,
// else nil. fellBack reports that the primary existed but was rejected —
// the torn-checkpoint detection the faultinject teeth test exercises.
func loadCheckpoint(dir string) (ck *checkpointEnvelope, fellBack bool) {
	load := func(name string) *checkpointEnvelope {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil
		}
		var env checkpointEnvelope
		if err := json.Unmarshal(data, &env); err != nil || !env.Complete || env.V > Version {
			return nil
		}
		return &env
	}
	if ck = load(ckptFile); ck != nil {
		return ck, false
	}
	if _, err := os.Stat(filepath.Join(dir, ckptFile)); err == nil {
		fellBack = true
	}
	return load(ckptPrevFile), fellBack
}

// Begin stamps (fresh) or validates (resume) the campaign fingerprint — a
// canonical encoding of every configuration knob that influences campaign
// counts. A resume whose fingerprint differs from the journaled one is
// refused: silently mixing configurations would produce a Result no single
// configuration can reproduce.
func (c *Campaign) Begin(campaign, fingerprint string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.begun {
		return errors.New("journal: Begin called twice")
	}
	if c.hdr.Kind != "" {
		if c.hdr.Fingerprint != fingerprint {
			return fmt.Errorf("journal: resume fingerprint mismatch for campaign %q:\n  journal: %s\n  now:     %s\n(the resumed run must use the same seed, counts, model, platforms, and solver configuration)",
				campaign, c.hdr.Fingerprint, fingerprint)
		}
		c.begun = true
		return nil
	}
	c.hdr = header{V: Version, Kind: "header", Campaign: campaign, Fingerprint: fingerprint}
	b, err := json.Marshal(c.hdr)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := c.writeDurable(append(b, '\n')); err != nil {
		return err
	}
	c.begun = true
	return nil
}

// Restored returns the program records recovered by a Resume open, in
// program order — always the contiguous prefix [0, len) of the campaign.
func (c *Campaign) Restored() []ProgramRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restored
}

// Dir returns the campaign's journal directory.
func (c *Campaign) Dir() string { return c.dir }

// Checkpoints returns how many checkpoint snapshots this Campaign wrote.
func (c *Campaign) Checkpoints() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckpts
}

// writeDurable appends raw bytes to the journal and fsyncs them. Caller
// holds c.mu.
func (c *Campaign) writeDurable(b []byte) error {
	if c.werr != nil {
		return c.werr
	}
	if _, err := c.f.Write(b); err != nil {
		c.werr = fmt.Errorf("journal: %w", err)
		return c.werr
	}
	if err := c.f.Sync(); err != nil {
		c.werr = fmt.Errorf("journal: sync: %w", err)
		return c.werr
	}
	return nil
}

// Append journals one completed program. Records must arrive in ascending
// program order starting at the resume point — the engines' in-order merge
// guarantees it, and Append enforces it, because a gap would break the
// prefix property resume depends on. When it returns nil the record is
// fsynced. checkpointed reports that this append also wrote an automatic
// checkpoint (every Options.Every appends).
func (c *Campaign) Append(rec ProgramRecord) (checkpointed bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.begun {
		return false, errors.New("journal: Append before Begin")
	}
	if c.werr != nil {
		return false, c.werr
	}
	if rec.Prog != c.next {
		return false, fmt.Errorf("journal: out-of-order append: got program %d, want %d", rec.Prog, c.next)
	}
	rec.Kind = "program"
	b, err := json.Marshal(&rec)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	if err := c.writeDurable(append(b, '\n')); err != nil {
		return false, err
	}
	c.all = append(c.all, rec)
	c.next++
	c.sinceCk++
	if c.every > 0 && c.sinceCk >= c.every {
		if err := c.checkpointLocked(); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// Next returns the next expected program index (= programs journaled so far).
func (c *Campaign) Next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}

// Checkpoint writes an atomic snapshot of everything journaled so far:
// temp file + fsync + rotate checkpoint.json to checkpoint.prev.json +
// rename + directory fsync. Crash-safe at every step — a kill between any
// two operations leaves either the old checkpoint, the old pair, or the new
// pair, all of which recovery handles.
func (c *Campaign) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.begun {
		return errors.New("journal: Checkpoint before Begin")
	}
	return c.checkpointLocked()
}

func (c *Campaign) checkpointLocked() error {
	if c.werr != nil {
		return c.werr
	}
	env := checkpointEnvelope{
		V:           Version,
		Campaign:    c.hdr.Campaign,
		Fingerprint: c.hdr.Fingerprint,
		Programs:    c.all,
		Complete:    true,
	}
	b, err := json.Marshal(&env)
	if err != nil {
		c.werr = fmt.Errorf("journal: %w", err)
		return c.werr
	}
	// Rotate the previous checkpoint out of the way first: if the new
	// write tears, recovery still finds an intact (if older) snapshot.
	primary := filepath.Join(c.dir, ckptFile)
	if _, err := os.Stat(primary); err == nil {
		if err := c.fs.Rename(primary, filepath.Join(c.dir, ckptPrevFile)); err != nil {
			c.werr = fmt.Errorf("journal: rotate checkpoint: %w", err)
			return c.werr
		}
	}
	if err := c.atomicWrite(ckptFile, b); err != nil {
		c.werr = err
		return c.werr
	}
	c.sinceCk = 0
	c.ckpts++
	return nil
}

// atomicWrite writes name under the campaign directory via the injected FS
// with the temp + fsync + rename + dir-fsync protocol (the FS-seam twin of
// logdb.AtomicWriteFile).
func (c *Campaign) atomicWrite(name string, data []byte) error {
	tmpPath := filepath.Join(c.dir, ckptTmpFile)
	tmp, err := c.fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := c.fs.Rename(tmpPath, filepath.Join(c.dir, name)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := c.fs.SyncDir(c.dir); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file. It does not write a final
// checkpoint — the campaign driver does that explicitly so the "final
// checkpoint on drain/finish" step is visible in one place.
func (c *Campaign) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.werr
	}
	var serr error
	if c.werr == nil {
		if err := c.f.Sync(); err != nil {
			serr = fmt.Errorf("journal: sync: %w", err)
		}
	}
	cerr := c.f.Close()
	c.f = nil
	if cerr != nil {
		cerr = fmt.Errorf("journal: close: %w", cerr)
	}
	return errors.Join(c.werr, serr, cerr)
}
