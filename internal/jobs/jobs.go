// Package jobs is the serving subsystem's execution queue: a bounded
// worker pool that runs scenario specs (internal/scenario) through a
// pluggable Runner, with per-job context cancellation and run deadlines,
// ordered progress events that clients can stream, graceful draining for
// shutdown, and an optional write-ahead journal sink (internal/jobstore)
// plus restore path that make the queue survive a crash.
//
// Each accepted job runs at most once per process life. Jobs are
// seed-deterministic simulations, so a failed run would fail the same way
// again: the queue does not retry. Recovery is journal replay — a job the
// process did not finish, whether it crashed or its shutdown drain timed
// out, is re-enqueued on the next boot, and the Runner resumes it from
// whatever result chunks it persisted.
//
// The queue knows nothing about HTTP or caching — the Runner closure wires
// those in (see internal/server) — which keeps cancellation and drain
// logic testable with a stub runner.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"tempriv/internal/obs"
	"tempriv/internal/scenario"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the scenario.
	StateRunning State = "running"
	// StateDone: finished successfully; Result is set.
	StateDone State = "done"
	// StateFailed: the run returned an error or exceeded its deadline.
	StateFailed State = "failed"
	// StateCanceled: canceled before or during execution.
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// OriginHandoff marks a submission that the cluster gateway re-dispatched
// from a dead worker (internal/cluster/gateway): the job is not a new
// client request but the continuation of one accepted elsewhere. The
// origin travels through events, snapshots and the journal so operators
// can tell organic load from crash-recovery load.
const OriginHandoff = "handoff"

// ErrQueueFull is returned by Submit when the pending queue is at capacity.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrDraining is returned by Submit after Drain has begun.
var ErrDraining = errors.New("jobs: queue draining")

// Result is what a Runner produces for a completed job.
type Result struct {
	// Fingerprint is the scenario's content address.
	Fingerprint string `json:"fingerprint"`
	// CacheHit records whether the result came from the result cache.
	CacheHit bool `json:"cache_hit"`
	// TableText, TableCSV and Manifest are the scenario's artifacts —
	// byte-identical between a cache hit and a fresh run.
	TableText []byte `json:"-"`
	TableCSV  []byte `json:"-"`
	Manifest  []byte `json:"-"`
}

// Runner executes one job. It must honor ctx (return promptly once
// canceled) and report coarse progress through progress(stage, message).
type Runner func(ctx context.Context, job *Job, progress func(stage, message string)) (*Result, error)

// JournalSink receives the two facts recovery needs: that a job was
// accepted, and how it ended. A job with no end record is re-enqueued on
// the next boot, whatever it was doing when the process stopped; which of
// its replicates survive is read from the result chunks, not the journal.
// The queue calls the sink synchronously under its lock, so
// implementations must be fast, must never call back into the queue, and
// must swallow their own errors (a sick journal degrades durability, not
// serving — see internal/jobstore).
type JournalSink interface {
	// Submitted records an accepted job before Submit returns. origin is
	// the submission's provenance ("" for a direct client submission,
	// OriginHandoff for a cluster crash handoff).
	Submitted(id, fingerprint string, spec scenario.Spec, origin string, at time.Time)
	// Finished records a job's terminal state. attempt is 1 once the job
	// has started, else 0; cacheHit and errMsg qualify the state.
	Finished(id string, state State, attempt int, cacheHit bool, errMsg string, at time.Time)
}

// Event is one progress record. Events are totally ordered per job by Seq,
// so a client can replay history and then follow the live stream without
// gaps or duplicates.
type Event struct {
	Seq     int    `json:"seq"`
	State   State  `json:"state"`
	Stage   string `json:"stage,omitempty"`
	Message string `json:"message,omitempty"`
	// Chunks annotates chunk-progress events: how many replicate result
	// chunks are durably persisted so far.
	Chunks int `json:"chunks,omitempty"`
}

// Job is one submitted scenario. All mutable fields are guarded by the
// owning Queue's lock; callers outside this package only see Snapshots.
type Job struct {
	// ID is the queue-assigned identifier ("job-000001", …).
	ID string
	// Spec is the normalized scenario.
	Spec scenario.Spec
	// Fingerprint is Spec.Fingerprint(), computed at submission.
	Fingerprint string
	// Origin is the submission's provenance ("" = direct client
	// submission; OriginHandoff = cluster crash handoff).
	Origin string

	state     State
	attempts  int
	err       error
	result    *Result
	events    []Event
	watchers  []chan Event
	submitted time.Time
	started   time.Time
	finished  time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	canceled  bool
	// restoredHit preserves the cache-hit flag of a journal-restored done
	// job whose result bytes live in the result cache, not in memory.
	restoredHit bool
	// chunksPersisted is how many replicates of this job are durable on
	// disk as result chunks (internal/resultstream). Monotonic. The Runner
	// reports it, so a restored job reads 0 until a worker starts it and
	// finds its surviving chunks.
	chunksPersisted int
	// queue points back at the owning queue so NoteChunks can take its lock.
	queue *Queue
	// span is the job's root trace span (zero when the submission was
	// untraced — restored jobs, tests); queueSpan times the wait between
	// acceptance and worker pickup. Zero SpanRefs no-op, so the queue
	// never branches on whether tracing is enabled.
	span      obs.SpanRef
	queueSpan obs.SpanRef
}

// NoteChunks records that the job's persisted result chunks now cover
// `persisted` replicates. The Runner calls it (outside the queue lock) as
// internal/resultstream confirms appends; the mark is monotonic and
// surfaces as a "chunk" progress event and in Snapshot.ChunksPersisted.
// It is not journaled: the chunk files themselves are the durable record.
func (j *Job) NoteChunks(persisted int) {
	q := j.queue
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state.Terminal() || persisted <= j.chunksPersisted {
		return
	}
	j.chunksPersisted = persisted
	q.appendEventLocked(j, Event{
		State:   j.state,
		Stage:   "chunk",
		Message: fmt.Sprintf("%d replicate chunk(s) persisted", persisted),
		Chunks:  persisted,
	})
}

// Snapshot is a consistent, copyable view of a job for status endpoints.
type Snapshot struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	State       State     `json:"state"`
	Attempts    int       `json:"attempts"`
	Error       string    `json:"error,omitempty"`
	CacheHit    bool      `json:"cache_hit"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started"`
	Finished    time.Time `json:"finished"`
	// Replicates is how many replicates the spec runs; ChunksPersisted is
	// how many of them are durable as result chunks so far. Together they
	// let clients gauge partial-result progress (see /result?partial=1).
	Replicates      int `json:"replicates,omitempty"`
	ChunksPersisted int `json:"chunks_persisted,omitempty"`
	// Origin marks non-organic submissions (jobs.OriginHandoff for a
	// cluster crash handoff); empty for direct client submissions.
	Origin string `json:"origin,omitempty"`
}

// RestoredJob re-creates one journal-replayed job at queue construction
// (see Options.Restore and internal/jobstore).
type RestoredJob struct {
	ID          string
	Spec        scenario.Spec
	Fingerprint string
	// State is the job's journaled state. Terminal states are restored
	// as-is (result bytes, if any, live in the result cache); any other
	// job is re-enqueued, and its runner resumes from whatever result
	// chunks survive.
	State     State
	Attempts  int
	CacheHit  bool
	Error     string
	Submitted time.Time
	Finished  time.Time
	// Origin is the journaled submission provenance (see Job.Origin).
	Origin string
}

// Options configure a Queue.
type Options struct {
	// Workers is the worker-pool size (default 1).
	Workers int
	// QueueDepth bounds pending submissions (default 64); Submit returns
	// ErrQueueFull beyond it. Restored jobs count against the bound until
	// a worker picks them up, so a deep crash backlog sheds new load
	// instead of compounding.
	QueueDepth int
	// RunTimeout bounds a job's run via context.WithTimeout; 0 means no
	// deadline.
	RunTimeout time.Duration
	// Journal, when non-nil, durably records submissions and terminal
	// states.
	Journal JournalSink
	// Restore re-creates journal-replayed jobs before the workers start:
	// terminal jobs become queryable history, queued/running jobs are
	// re-enqueued. IDs are preserved and the ID sequence continues past
	// the highest restored ID.
	Restore []RestoredJob
	// Log, when non-nil, receives structured lifecycle records (accepted,
	// started, finished) with trace/job IDs attached via the
	// record context (see internal/obs.ContextHandler).
	Log *slog.Logger
	// OnDone, when non-nil, fires after a job reaches StateDone — from the
	// worker goroutine, outside the queue lock — with the job's final
	// snapshot and result. The cluster hooks this to replicate finished
	// result bytes to a ring peer (internal/cluster/peering); it should
	// hand the bytes off quickly rather than do I/O inline, since the
	// worker is held until it returns.
	OnDone func(snap Snapshot, res *Result)
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	return o
}

// Queue is the bounded worker-pool job queue.
type Queue struct {
	opts    Options
	runner  Runner
	pending chan *Job
	wg      sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	queued   int // jobs accepted but not yet picked up by a worker
	draining bool
}

// New starts a queue with the given runner and options. Restored jobs (see
// Options.Restore) are re-created before the first worker starts, so replay
// can never race fresh submissions for a job ID.
func New(runner Runner, opts Options) *Queue {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		opts: opts,
		// The channel is sized so restored re-enqueues can never block:
		// admission is enforced by the queued counter, not the buffer.
		pending:   make(chan *Job, opts.QueueDepth+len(opts.Restore)),
		runner:    runner,
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
	}
	for _, r := range opts.Restore {
		q.restore(r)
	}
	for i := 0; i < opts.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// restore re-creates one replayed job. Invalid or duplicate entries are
// skipped (internal/jobstore validates and dedups, so this is a backstop).
func (q *Queue) restore(r RestoredJob) {
	var n int
	if _, err := fmt.Sscanf(r.ID, "job-%d", &n); err != nil || n <= 0 {
		return
	}
	if _, exists := q.jobs[r.ID]; exists {
		return
	}
	if n > q.nextID {
		q.nextID = n
	}
	jctx, jcancel := context.WithCancel(q.baseCtx)
	j := &Job{
		ID:          r.ID,
		Spec:        r.Spec,
		Fingerprint: r.Fingerprint,
		Origin:      r.Origin,
		attempts:    r.Attempts,
		submitted:   r.Submitted,
		finished:    r.Finished,
		ctx:         jctx,
		cancel:      jcancel,
		queue:       q,
	}
	q.jobs[r.ID] = j
	q.order = append(q.order, r.ID)
	if r.State.Terminal() {
		j.state = r.State
		j.restoredHit = r.CacheHit
		if r.Error != "" {
			j.err = errors.New(r.Error)
		}
		q.appendEventLocked(j, Event{State: r.State, Stage: "restored", Message: "restored from journal"})
		j.cancel()
		return
	}
	// Unfinished at crash time: back to the start of the line. Its
	// submit record already stands in the journal, so nothing is written.
	j.state = StateQueued
	j.attempts = 0
	q.appendEventLocked(j, Event{State: StateQueued, Stage: "restored", Message: "re-enqueued after journal replay"})
	q.pending <- j
	q.queued++
}

// journalFinished forwards a terminal state to the journal sink
// (nil-safe). Called with q.mu held.
func (q *Queue) journalFinished(id string, state State, attempt int, cacheHit bool, errMsg string) {
	if q.opts.Journal != nil {
		q.opts.Journal.Finished(id, state, attempt, cacheHit, errMsg, time.Now())
	}
}

// Submit validates nothing — the caller passes an already-normalized
// spec — and enqueues it, returning the job's initial snapshot. The
// submission is journaled (when a sink is configured) before Submit
// returns, so an accepted job survives a crash. origin tags the
// submission's provenance ("" for a direct client submission,
// OriginHandoff for a cluster crash handoff); it travels through the
// queued event, every snapshot and the journal.
//
// ctx is for observability only, never cancellation: when it carries a
// trace span (internal/obs), the job adopts it as its root span, binds the
// trace to the job ID, and times its queue wait, its attempt and the
// engine stages under it. The job's execution context stays derived from
// the queue, so an HTTP client disconnecting does not cancel its job.
func (q *Queue) Submit(ctx context.Context, spec scenario.Spec, origin string) (Snapshot, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return Snapshot{}, err
	}
	span := obs.SpanFromContext(ctx)
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	if q.queued >= q.opts.QueueDepth {
		q.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	q.nextID++
	jctx, jcancel := context.WithCancel(q.baseCtx)
	j := &Job{
		ID:          fmt.Sprintf("job-%06d", q.nextID),
		Spec:        spec,
		Fingerprint: fp,
		Origin:      origin,
		state:       StateQueued,
		submitted:   time.Now(),
		ctx:         jctx,
		cancel:      jcancel,
		queue:       q,
		span:        span,
	}
	span.BindJob(j.ID)
	j.queueSpan = span.Child("queue")
	// The enqueue happens under the lock so it cannot race Drain's
	// close(q.pending); the buffer is sized past the admission bound, so
	// the send never blocks (the default is a backstop, not a policy).
	select {
	case q.pending <- j:
	default:
		jcancel()
		q.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	q.queued++
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	queuedEv := Event{State: StateQueued, Stage: "queued"}
	if origin != "" {
		queuedEv.Message = "origin: " + origin
	}
	q.appendEventLocked(j, queuedEv)
	if q.opts.Journal != nil {
		q.opts.Journal.Submitted(j.ID, fp, spec, origin, j.submitted)
	}
	snap := q.snapshotLocked(j)
	q.mu.Unlock()
	attrs := []slog.Attr{slog.String("fingerprint", fp), slog.String("name", spec.Name)}
	if origin != "" {
		attrs = append(attrs, slog.String("origin", origin))
	}
	q.logJob(j, slog.LevelInfo, "job accepted", attrs...)
	return snap, nil
}

// logJob emits one structured lifecycle record (no-op without a logger).
// The record context carries the job's span, so trace_id and job_id
// attach through the obs.ContextHandler. Never called with q.mu held —
// the log writer is outside this package's control.
func (q *Queue) logJob(j *Job, level slog.Level, msg string, attrs ...slog.Attr) {
	if q.opts.Log == nil {
		return
	}
	ctx := obs.ContextWithSpan(context.Background(), j.span)
	q.opts.Log.LogAttrs(ctx, level, msg, append(attrs, slog.String("job", j.ID))...)
}

// Get returns a job's snapshot.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return q.snapshotLocked(j), true
}

// Result returns a done job's result. A journal-restored done job has no
// in-memory result (its bytes live in the result cache, addressed by
// fingerprint) and returns false here.
func (q *Queue) Result(id string) (*Result, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.result == nil {
		return nil, false
	}
	return j.result, true
}

// List returns all jobs in submission order.
func (q *Queue) List() []Snapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Snapshot, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.snapshotLocked(q.jobs[id]))
	}
	return out
}

// Backlog returns how many accepted jobs are waiting for a worker.
func (q *Queue) Backlog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// Cancel requests a job stop. Queued jobs cancel immediately; running jobs
// get their context canceled and finish as canceled once the runner
// returns. Canceling a terminal job is a no-op.
func (q *Queue) Cancel(id string) (Snapshot, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Snapshot{}, false
	}
	var canceledQueued bool
	if !j.state.Terminal() {
		j.canceled = true
		j.cancel()
		if j.state == StateQueued {
			j.state = StateCanceled
			q.appendEventLocked(j, Event{State: StateCanceled, Stage: "canceled", Message: "canceled while queued"})
			q.journalFinished(j.ID, StateCanceled, j.attempts, false, "canceled while queued")
			q.finishLocked(j)
			canceledQueued = true
		} else {
			q.appendEventLocked(j, Event{State: j.state, Stage: "cancel-requested"})
		}
	}
	snap := q.snapshotLocked(j)
	q.mu.Unlock()
	if canceledQueued {
		j.queueSpan.Annotate("outcome", "canceled")
		j.queueSpan.End()
		j.endTrace(StateCanceled)
		q.logJob(j, slog.LevelInfo, "job canceled while queued")
	}
	return snap, true
}

// endTrace closes the job's root span with its terminal state — finishing
// the trace (flight-recorder commit + JSONL stream). Zero-span safe.
func (j *Job) endTrace(state State) {
	j.span.Annotate("state", string(state))
	j.span.End()
}

// Watch returns the job's event history so far and a channel delivering
// subsequent events; the channel closes when the job reaches a terminal
// state. Call stop to unsubscribe early.
func (q *Queue) Watch(id string) (history []Event, live <-chan Event, stop func(), ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, okk := q.jobs[id]
	if !okk {
		return nil, nil, nil, false
	}
	history = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		ch := make(chan Event)
		close(ch)
		return history, ch, func() {}, true
	}
	ch := make(chan Event, 64)
	j.watchers = append(j.watchers, ch)
	stop = func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return history, ch, stop, true
}

// Drain stops accepting submissions and waits for in-flight jobs to finish.
// If ctx expires first, the running jobs' contexts are canceled, queued
// jobs are not started, and Drain waits (briefly) for the workers to
// acknowledge. Neither kind gets a terminal journal record, so the next
// boot's replay re-enqueues them. Queue resources — including the worker
// goroutines — are fully released when Drain returns.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	already := q.draining
	q.draining = true
	q.mu.Unlock()
	if !already {
		close(q.pending)
	}

	done := make(chan struct{})
	go func() { q.wg.Wait(); close(done) }()
	select {
	case <-done:
		q.cancelAll()
		return nil
	case <-ctx.Done():
		// Hard drain: abort everything and wait for the workers, which by
		// contract return promptly once their job contexts cancel.
		q.cancelAll()
		<-done
		return ctx.Err()
	}
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		q.runOne(j)
	}
}

func (q *Queue) runOne(j *Job) {
	q.mu.Lock()
	q.queued--
	// Skip a job canceled while queued, and every queued job once a hard
	// drain has canceled the queue: those stay queued in the journal.
	if j.state != StateQueued || q.baseCtx.Err() != nil {
		q.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.attempts = 1
	q.appendEventLocked(j, Event{State: StateRunning, Stage: "started"})
	ctx := j.ctx
	q.mu.Unlock()
	j.queueSpan.End()
	q.logJob(j, slog.LevelDebug, "job started")

	if q.opts.RunTimeout > 0 {
		var cancelRun context.CancelFunc
		ctx, cancelRun = context.WithTimeout(ctx, q.opts.RunTimeout)
		defer cancelRun()
	}

	progress := func(stage, message string) {
		q.mu.Lock()
		q.appendEventLocked(j, Event{State: StateRunning, Stage: stage, Message: message})
		q.mu.Unlock()
	}

	// The runner's stage spans (cache, engine, chunks) hang off the attempt
	// span through the context.
	attSpan := j.span.Child("attempt")
	res, err := q.runner(obs.ContextWithSpan(ctx, attSpan), j, progress)
	attSpan.EndErr(err)

	q.mu.Lock()
	j.finished = time.Now()
	if err != nil && !j.canceled && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("run deadline %v exceeded: %w", q.opts.RunTimeout, err)
	}
	switch {
	case ctx.Err() != nil && j.canceled:
		j.state = StateCanceled
		j.err = context.Canceled
		q.appendEventLocked(j, Event{State: StateCanceled, Stage: "canceled", Message: "canceled while running"})
		q.journalFinished(j.ID, StateCanceled, j.attempts, false, "canceled while running")
	case err != nil:
		j.state = StateFailed
		j.err = err
		q.appendEventLocked(j, Event{State: StateFailed, Stage: "failed", Message: err.Error()})
		// A run cut short by a hard drain did not fail on its own, so it
		// gets no terminal journal record: the next boot's replay
		// re-enqueues the job, as after a crash.
		if q.baseCtx.Err() == nil {
			q.journalFinished(j.ID, StateFailed, j.attempts, false, err.Error())
		}
	default:
		j.state = StateDone
		j.result = res
		msg := "fresh run"
		if res.CacheHit {
			msg = "result cache hit"
		}
		q.appendEventLocked(j, Event{State: StateDone, Stage: "done", Message: msg})
		q.journalFinished(j.ID, StateDone, j.attempts, res.CacheHit, "")
	}
	state := j.state
	elapsed := j.finished.Sub(j.started)
	var doneSnap Snapshot
	if state == StateDone && q.opts.OnDone != nil {
		doneSnap = q.snapshotLocked(j)
	}
	q.finishLocked(j)
	q.mu.Unlock()

	switch state {
	case StateDone:
		j.span.Annotate("cache_hit", fmt.Sprintf("%t", res.CacheHit))
		q.logJob(j, slog.LevelInfo, "job done",
			slog.Bool("cache_hit", res.CacheHit), slog.Duration("elapsed", elapsed))
		if q.opts.OnDone != nil {
			q.opts.OnDone(doneSnap, res)
		}
	case StateFailed:
		q.logJob(j, slog.LevelError, "job failed",
			slog.String("error", err.Error()), slog.Duration("elapsed", elapsed))
	default:
		q.logJob(j, slog.LevelInfo, "job canceled while running",
			slog.Duration("elapsed", elapsed))
	}
	j.endTrace(state)
}

// appendEventLocked records an event and fans it out to watchers. A watcher
// that has fallen 64 events behind loses intermediate events rather than
// blocking the worker (the history replay on reconnect fills gaps).
func (q *Queue) appendEventLocked(j *Job, ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for _, w := range j.watchers {
		select {
		case w <- ev:
		default:
		}
	}
}

// finishLocked releases a terminal job's resources: its context and its
// watcher channels.
func (q *Queue) finishLocked(j *Job) {
	j.cancel()
	for _, w := range j.watchers {
		close(w)
	}
	j.watchers = nil
}

func (q *Queue) snapshotLocked(j *Job) Snapshot {
	s := Snapshot{
		ID:              j.ID,
		Name:            j.Spec.Name,
		Fingerprint:     j.Fingerprint,
		State:           j.state,
		Attempts:        j.attempts,
		Submitted:       j.submitted,
		Started:         j.started,
		Finished:        j.finished,
		Replicates:      j.Spec.Replicates(),
		ChunksPersisted: j.chunksPersisted,
		Origin:          j.Origin,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.result != nil {
		s.CacheHit = j.result.CacheHit
	} else if j.restoredHit {
		s.CacheHit = true
	}
	return s
}
