// Package jobstore is temprivd's durability layer: an append-only JSONL
// write-ahead journal of every job submission and every job's end. A crash
// or redeploy no longer loses the queue — on startup the daemon replays the
// journal, re-enqueues every job that has no end record, and compacts the
// log so it does not grow without bound.
//
// Journal format (one JSON object per line, fsynced per append): a submit
// record when a job is accepted, and one state record when it is done,
// failed or canceled.
//
//	{"t":"submit","job":"job-000001","fp":"<sha256>","spec":{...},"ts":"..."}
//	{"t":"state","job":"job-000001","state":"done","attempt":1,"cache_hit":true,"ts":"..."}
//
// Older journals also hold non-terminal state records and "chunk" records;
// replay skips them, and the next compaction drops them.
//
// Replay is fail-closed: truncated tails (a crash mid-append), garbage
// lines, duplicate submit records and orphan state records are counted and
// skipped — they can never panic the daemon or double-enqueue a job. The
// spec stored in a submit record is the scenario's canonical JSON, so a
// replayed job re-parses to a spec with the identical fingerprint, and its
// re-run produces byte-identical artifacts (every scenario is
// seed-deterministic).
//
// Compaction rewrites the journal to one submit record (plus one state
// record for a finished job) per retained job: every non-terminal job
// survives, and the most recent Options.RetainTerminal terminal jobs are
// kept so their IDs stay resolvable across a restart (their result bytes
// live in the result cache, addressed by fingerprint).
//
// All disk access goes through faultfs.FS, so ENOSPC, EIO, torn writes and
// fsync failures are injectable in tests. An append failure degrades to
// lost durability for that record — availability over durability — and is
// surfaced through Options.OnAppendError and Stats, never to the client.
package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"tempriv/internal/faultfs"
	"tempriv/internal/jobs"
	"tempriv/internal/scenario"
)

// journalFile is the journal's filename inside its directory.
const journalFile = "journal.jsonl"

// Record is one journal line.
type Record struct {
	// T discriminates the record type: "submit" or "state".
	T string `json:"t"`
	// Job is the queue-assigned job ID.
	Job string `json:"job"`
	// FP and Spec are set on submit records: the scenario fingerprint and
	// its canonical JSON. Origin, when present, is the submission's
	// provenance (jobs.OriginHandoff for a cluster crash handoff).
	FP     string          `json:"fp,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Origin string          `json:"origin,omitempty"`
	// State, Attempt, CacheHit and Error are set on state records.
	State    string `json:"state,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// TS is the wall-clock time of the event.
	TS time.Time `json:"ts,omitempty"`
}

// ReplayedJob is the aggregated view of one job after replay: its submit
// record folded with its terminal state record, if it has one.
type ReplayedJob struct {
	ID          string
	Fingerprint string
	SpecJSON    []byte
	State       jobs.State
	Attempt     int
	CacheHit    bool
	Error       string
	Submitted   time.Time
	Finished    time.Time
	// Origin is the journaled submission provenance (see jobs.Job.Origin).
	Origin string
}

// Stats counts journal health since Open.
type Stats struct {
	// Appends and AppendErrors count journal writes and failed writes.
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// CorruptLines, DuplicateSubmits and OrphanStates count records
	// rejected during replay (fail-closed skips).
	CorruptLines     int `json:"corrupt_lines"`
	DuplicateSubmits int `json:"duplicate_submits"`
	OrphanStates     int `json:"orphan_states"`
	// LiveJobs and TerminalJobs describe the current aggregate population.
	LiveJobs     int `json:"live_jobs"`
	TerminalJobs int `json:"terminal_jobs"`
	// Compactions counts log rewrites.
	Compactions uint64 `json:"compactions"`
}

// Options configure a Journal.
type Options struct {
	// FS is the filesystem seam (nil = the real OS filesystem).
	FS faultfs.FS
	// RetainTerminal bounds how many terminal jobs compaction keeps
	// (default 1000; negative keeps none).
	RetainTerminal int
	// CompactEvery auto-compacts after this many appends (default 4096;
	// negative disables auto-compaction).
	CompactEvery int
	// OnAppendError observes journal write failures (telemetry hook).
	OnAppendError func(error)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.RetainTerminal == 0 {
		o.RetainTerminal = 1000
	}
	if o.RetainTerminal < 0 {
		o.RetainTerminal = 0
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 4096
	}
	return o
}

// Journal is the write-ahead log. It implements jobs.JournalSink, so a
// queue constructed with Options{Journal: j} records every submission and
// terminal state durably. Safe for concurrent use.
type Journal struct {
	dir  string
	path string
	opts Options

	mu    sync.Mutex
	f     faultfs.File
	jobs  map[string]*ReplayedJob
	order []string
	stats Stats
	// sinceCompact counts appends since the last compaction.
	sinceCompact int
	// torn records that the last append may have left a partial line; the
	// next append prepends a newline to restore framing.
	torn bool
}

// validJobID matches queue-assigned IDs; replayed records with other IDs
// are rejected so they can never collide with freshly generated ones.
var validJobID = regexp.MustCompile(`^job-[0-9]{6,}$`)

// validState reports whether s is a known job state.
func validState(s string) bool {
	switch jobs.State(s) {
	case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
		return true
	}
	return false
}

// Open reads (replaying) any existing journal in dir and opens it for
// appending, creating dir as needed.
func Open(dir string, opts Options) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: empty journal directory")
	}
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: preparing %s: %w", dir, err)
	}
	j := &Journal{
		dir:  dir,
		path: filepath.Join(dir, journalFile),
		opts: opts,
		jobs: make(map[string]*ReplayedJob),
	}
	data, err := opts.FS.ReadFile(j.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobstore: reading journal: %w", err)
	}
	j.replay(data)
	f, err := opts.FS.OpenAppend(j.path)
	if err != nil {
		return nil, fmt.Errorf("jobstore: opening journal for append: %w", err)
	}
	j.f = f
	return j, nil
}

// replay folds raw journal bytes into the aggregate map. Every malformed
// record is skipped and counted; nothing here can panic on hostile input
// (see FuzzReplay).
func (j *Journal) replay(data []byte) {
	start := 0
	for start < len(data) {
		end := start
		for end < len(data) && data[end] != '\n' {
			end++
		}
		line := data[start:end]
		// A final line without a trailing newline is a torn append: skip it.
		truncated := end == len(data)
		start = end + 1
		if len(line) == 0 {
			continue
		}
		if truncated {
			j.stats.CorruptLines++
			continue
		}
		j.apply(line)
	}
}

// apply folds one journal line.
func (j *Journal) apply(line []byte) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		j.stats.CorruptLines++
		return
	}
	switch rec.T {
	case "submit":
		if !validJobID.MatchString(rec.Job) || len(rec.Spec) == 0 || rec.FP == "" {
			j.stats.CorruptLines++
			return
		}
		if _, exists := j.jobs[rec.Job]; exists {
			j.stats.DuplicateSubmits++
			return
		}
		j.jobs[rec.Job] = &ReplayedJob{
			ID:          rec.Job,
			Fingerprint: rec.FP,
			SpecJSON:    append([]byte(nil), rec.Spec...),
			State:       jobs.StateQueued,
			Submitted:   rec.TS,
			Origin:      rec.Origin,
		}
		j.order = append(j.order, rec.Job)
	case "state":
		if !validState(rec.State) {
			j.stats.CorruptLines++
			return
		}
		job, ok := j.jobs[rec.Job]
		if !ok {
			j.stats.OrphanStates++
			return
		}
		if job.State.Terminal() {
			// A transition after a terminal record is corruption (or a
			// duplicated tail): fail closed, first terminal state wins.
			j.stats.OrphanStates++
			return
		}
		state := jobs.State(rec.State)
		if !state.Terminal() {
			// An older journal's queued or running record: a job with no
			// end record is re-enqueued whatever it was doing.
			return
		}
		job.State = state
		if rec.Attempt > 0 {
			job.Attempt = rec.Attempt
		}
		job.CacheHit = rec.CacheHit
		job.Error = rec.Error
		job.Finished = rec.TS
	case "chunk":
		// An older journal's replicate high-water mark. Resume reads the
		// chunk files themselves, so the record carries nothing to apply.
	default:
		j.stats.CorruptLines++
	}
}

// Jobs returns the aggregated jobs in submission order.
func (j *Journal) Jobs() []ReplayedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ReplayedJob, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, *j.jobs[id])
	}
	return out
}

// Stats returns journal health counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	for _, job := range j.jobs {
		if job.State.Terminal() {
			s.TerminalJobs++
		} else {
			s.LiveJobs++
		}
	}
	return s
}

// Submitted implements jobs.JournalSink: it durably records an accepted
// job before the submission response is sent.
func (j *Journal) Submitted(id, fingerprint string, spec scenario.Spec, origin string, at time.Time) {
	canon, err := spec.CanonicalJSON()
	if err != nil {
		j.noteAppendError(fmt.Errorf("jobstore: canonicalizing spec for %s: %w", id, err))
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, exists := j.jobs[id]; !exists {
		j.jobs[id] = &ReplayedJob{
			ID:          id,
			Fingerprint: fingerprint,
			SpecJSON:    canon,
			State:       jobs.StateQueued,
			Submitted:   at,
			Origin:      origin,
		}
		j.order = append(j.order, id)
	}
	j.appendLocked(Record{T: "submit", Job: id, FP: fingerprint, Spec: canon, Origin: origin, TS: at})
}

// Finished implements jobs.JournalSink: it records a job's terminal state.
func (j *Journal) Finished(id string, state jobs.State, attempt int, cacheHit bool, errMsg string, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if job, ok := j.jobs[id]; ok {
		job.State = state
		job.Attempt = attempt
		job.CacheHit = cacheHit
		job.Error = errMsg
		job.Finished = at
	}
	j.appendLocked(Record{T: "state", Job: id, State: string(state), Attempt: attempt, CacheHit: cacheHit, Error: errMsg, TS: at})
}

// appendLocked writes one record line and fsyncs it. On failure the record
// is lost (the in-memory aggregate is already updated, so compaction will
// restore consistency if the disk heals) and a best-effort newline
// re-synchronizes line framing after a torn write.
func (j *Journal) appendLocked(rec Record) {
	if j.f == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.noteAppendErrorLocked(err)
		return
	}
	line = append(line, '\n')
	if j.torn {
		line = append([]byte("\n"), line...)
	}
	if _, err := j.f.Write(line); err != nil {
		// The line may have landed partially; re-synchronize framing with a
		// newline now if the disk lets us, or before the next append if not.
		if _, nlErr := j.f.Write([]byte("\n")); nlErr == nil {
			j.torn = false
		} else {
			j.torn = true
		}
		j.noteAppendErrorLocked(fmt.Errorf("jobstore: appending: %w", err))
		return
	}
	j.torn = false
	if err := j.f.Sync(); err != nil {
		j.noteAppendErrorLocked(fmt.Errorf("jobstore: fsync: %w", err))
		return
	}
	j.stats.Appends++
	j.sinceCompact++
	if j.opts.CompactEvery > 0 && j.sinceCompact >= j.opts.CompactEvery {
		// Best effort: a failed auto-compaction leaves the longer (still
		// valid) journal in place and will be retried after the next batch.
		_ = j.compactLocked()
	}
}

func (j *Journal) noteAppendError(err error) {
	j.mu.Lock()
	j.stats.AppendErrors++
	j.mu.Unlock()
	if j.opts.OnAppendError != nil {
		j.opts.OnAppendError(err)
	}
}

func (j *Journal) noteAppendErrorLocked(err error) {
	j.stats.AppendErrors++
	if j.opts.OnAppendError != nil {
		// Release the lock around the hook? The hook is a counter bump in
		// practice; holding the lock keeps error accounting ordered.
		j.opts.OnAppendError(err)
	}
}

// Compact rewrites the journal to its minimal form: one submit record per
// retained job, plus one state record for each finished one. Non-terminal
// jobs always survive; terminal jobs beyond RetainTerminal (oldest first)
// are dropped from both the log and the aggregate view.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	// Trim terminal jobs beyond the retention bound, oldest first.
	terminal := 0
	for _, id := range j.order {
		if j.jobs[id].State.Terminal() {
			terminal++
		}
	}
	drop := terminal - j.opts.RetainTerminal
	if drop > 0 {
		kept := j.order[:0]
		for _, id := range j.order {
			if drop > 0 && j.jobs[id].State.Terminal() {
				delete(j.jobs, id)
				drop--
				continue
			}
			kept = append(kept, id)
		}
		j.order = kept
	}

	var buf []byte
	for _, id := range j.order {
		job := j.jobs[id]
		sub, err := json.Marshal(Record{T: "submit", Job: id, FP: job.Fingerprint, Spec: job.SpecJSON, Origin: job.Origin, TS: job.Submitted})
		if err != nil {
			return fmt.Errorf("jobstore: compacting %s: %w", id, err)
		}
		buf = append(buf, sub...)
		buf = append(buf, '\n')
		if job.State.Terminal() {
			st, err := json.Marshal(Record{T: "state", Job: id, State: string(job.State), Attempt: job.Attempt, CacheHit: job.CacheHit, Error: job.Error, TS: job.Finished})
			if err != nil {
				return fmt.Errorf("jobstore: compacting %s: %w", id, err)
			}
			buf = append(buf, st...)
			buf = append(buf, '\n')
		}
	}

	tmp := j.path + ".tmp"
	if err := j.opts.FS.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("jobstore: writing compacted journal: %w", err)
	}
	if err := j.opts.FS.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("jobstore: publishing compacted journal: %w", err)
	}
	// Swap the append handle onto the new file.
	f, err := j.opts.FS.OpenAppend(j.path)
	if err != nil {
		return fmt.Errorf("jobstore: reopening journal: %w", err)
	}
	if j.f != nil {
		_ = j.f.Close()
	}
	j.f = f
	j.stats.Compactions++
	j.sinceCompact = 0
	return nil
}

// Close releases the append handle. The journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
