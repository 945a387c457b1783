package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tempriv/internal/scenario"
)

func testSpec(t *testing.T, seed uint64) scenario.Spec {
	t.Helper()
	doc := fmt.Sprintf(`{"version":1,"experiment":{"id":"fig2a","packets":10,"interarrivals":[4],"seed":%d}}`, seed)
	spec, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func okRunner(res *Result) Runner {
	return func(ctx context.Context, job *Job, progress func(stage, message string)) (*Result, error) {
		progress("run", "working")
		out := *res
		out.Fingerprint = job.Fingerprint
		return &out, nil
	}
}

func waitTerminal(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if s.State.Terminal() {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Snapshot{}
}

func TestSubmitRunsToDone(t *testing.T) {
	q := New(okRunner(&Result{TableText: []byte("table")}), Options{Workers: 2})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint == "" {
		t.Fatal("snapshot missing fingerprint")
	}
	final := waitTerminal(t, q, s.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q, want done (error %q)", final.State, final.Error)
	}
	got, ok := q.Result(s.ID)
	if !ok {
		t.Fatal("no result for done job")
	}
	if string(got.TableText) != "table" || got.Fingerprint != s.Fingerprint {
		t.Fatalf("result = %+v", got)
	}
	history, _, stop, ok := q.Watch(s.ID)
	if !ok {
		t.Fatal("watch failed")
	}
	stop()
	if len(history) == 0 {
		t.Fatal("no events recorded")
	}
}

func TestRunnerErrorFailsAfterOneAttempt(t *testing.T) {
	var attempts atomic.Int32
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		attempts.Add(1)
		return nil, errors.New("bad scenario")
	}
	q := New(runner, Options{Workers: 1})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, s.ID)
	if final.State != StateFailed || final.Error != "bad scenario" {
		t.Fatalf("state = %q (error %q), want failed with the runner's error", final.State, final.Error)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1", n)
	}
	if final.Attempts != 1 {
		t.Fatalf("snapshot attempts = %d, want 1", final.Attempts)
	}
	if _, ok := q.Result(s.ID); ok {
		t.Fatal("Result succeeded for a failed job")
	}
	history, _, stop, _ := q.Watch(s.ID)
	stop()
	for _, ev := range history {
		if ev.Stage == "retry" {
			t.Fatalf("retry event after a runner error: %+v", history)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q := New(runner, Options{Workers: 1})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 5), "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := q.Cancel(s.ID); !ok {
		t.Fatal("cancel failed")
	}
	final := waitTerminal(t, q, s.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", final.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		started <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Result{Fingerprint: job.Fingerprint}, nil
	}
	q := New(runner, Options{Workers: 1})
	defer func() {
		close(block)
		q.Drain(context.Background())
	}()

	// First job occupies the only worker; second stays queued.
	if _, err := q.Submit(context.Background(), testSpec(t, 6), ""); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := q.Submit(context.Background(), testSpec(t, 7), "")
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := q.Cancel(queued.ID)
	if !ok {
		t.Fatal("cancel failed")
	}
	if snap.State != StateCanceled {
		t.Fatalf("queued job canceled lazily: state %q", snap.State)
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		started <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Result{}, nil
	}
	q := New(runner, Options{Workers: 1, QueueDepth: 1})
	defer func() {
		close(block)
		q.Drain(context.Background())
	}()

	if _, err := q.Submit(context.Background(), testSpec(t, 8), ""); err != nil { // running
		t.Fatal(err)
	}
	<-started
	if _, err := q.Submit(context.Background(), testSpec(t, 9), ""); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := q.Submit(context.Background(), testSpec(t, 10), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return &Result{Fingerprint: job.Fingerprint}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	q := New(runner, Options{Workers: 1})

	s, err := q.Submit(context.Background(), testSpec(t, 11), "")
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()

	// Submissions are refused once the drain begins.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := q.Submit(context.Background(), testSpec(t, 12), ""); errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started returning ErrDraining")
		}
		time.Sleep(time.Millisecond)
	}

	// The drain must not finish while the job is still running.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job completed rather than being aborted.
	final, ok := q.Get(s.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if final.State != StateDone {
		t.Fatalf("state = %q after graceful drain, want done", final.State)
	}
}

func TestDrainTimeoutCancelsJobs(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		close(started)
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	q := New(runner, Options{Workers: 1})

	s, err := q.Submit(context.Background(), testSpec(t, 13), "")
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	final := waitTerminal(t, q, s.ID)
	if final.State != StateCanceled && final.State != StateFailed {
		t.Fatalf("state = %q after forced drain, want canceled or failed", final.State)
	}
}

// TestDrainTimeoutJournalsNothingTerminal: a hard drain is a shutdown, not
// an outcome. Neither the interrupted running job nor the queued job behind
// it may be journaled terminal, and the queued job must not start, so the
// next boot's replay re-enqueues both, exactly as after a crash.
func TestDrainTimeoutJournalsNothingTerminal(t *testing.T) {
	sink := &recordingSink{}
	started := make(chan struct{}, 2)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		started <- struct{}{}
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	q := New(runner, Options{Workers: 1, Journal: sink})

	if _, err := q.Submit(context.Background(), testSpec(t, 52), ""); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := q.Submit(context.Background(), testSpec(t, 53), "")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if _, ends := sink.snapshot(); len(ends) != 0 {
		t.Fatalf("end records journaled: %q, want none", ends)
	}
	if s, _ := q.Get(queued.ID); s.State != StateQueued {
		t.Fatalf("queued job state %q after the hard drain, want queued", s.State)
	}
}

func TestWatchReplaysOrderedHistory(t *testing.T) {
	q := New(okRunner(&Result{}), Options{Workers: 1})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 14), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, s.ID)

	// Watching a terminal job replays its full history; the live channel is
	// already closed.
	history, live, stop, ok := q.Watch(s.ID)
	if !ok {
		t.Fatal("watch failed")
	}
	defer stop()
	for range live {
		t.Fatal("terminal job delivered live events")
	}
	if len(history) == 0 {
		t.Fatal("watch replayed no events")
	}
	for i := 1; i < len(history); i++ {
		if history[i].Seq <= history[i-1].Seq {
			t.Fatalf("events out of order: %+v", history)
		}
	}
	last := history[len(history)-1]
	if last.State != StateDone {
		t.Fatalf("last event state = %q, want done", last.State)
	}
}

func TestWatchStreamsLiveEvents(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		close(started)
		<-release
		progress("run", "almost done")
		return &Result{Fingerprint: job.Fingerprint}, nil
	}
	q := New(runner, Options{Workers: 1})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 15), "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_, live, stop, ok := q.Watch(s.ID)
	if !ok {
		t.Fatal("watch failed")
	}
	defer stop()
	close(release)

	sawDone := false
	timeout := time.After(5 * time.Second)
	for !sawDone {
		select {
		case ev, open := <-live:
			if !open {
				if !sawDone {
					t.Fatal("live channel closed without a done event")
				}
			} else if ev.State == StateDone {
				sawDone = true
			}
		case <-timeout:
			t.Fatal("no done event streamed")
		}
	}
}

func TestGetUnknownJob(t *testing.T) {
	q := New(okRunner(&Result{}), Options{})
	defer q.Drain(context.Background())
	if _, ok := q.Get("job-999999"); ok {
		t.Fatal("Get of unknown job succeeded")
	}
	if _, ok := q.Cancel("job-999999"); ok {
		t.Fatal("Cancel of unknown job succeeded")
	}
	if _, _, _, ok := q.Watch("job-999999"); ok {
		t.Fatal("Watch of unknown job succeeded")
	}
}

func TestListOrdering(t *testing.T) {
	q := New(okRunner(&Result{}), Options{Workers: 1})
	defer q.Drain(context.Background())
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := q.Submit(context.Background(), testSpec(t, uint64(20+i)), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		waitTerminal(t, q, id)
	}
	list := q.List()
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for i, s := range list {
		if s.ID != ids[i] {
			t.Fatalf("list order %v, want %v", list, ids)
		}
	}
}

// TestDrainLeavesNoGoroutines is the leak check from the issue: after a
// graceful drain every worker goroutine has exited and watcher channels are
// closed.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	q := New(okRunner(&Result{}), Options{Workers: 4})
	var ids []string
	for i := 0; i < 8; i++ {
		s, err := q.Submit(context.Background(), testSpec(t, uint64(30+i)), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	// Hold a live watcher over the drain to prove it gets closed out too.
	_, live, stop, ok := q.Watch(ids[len(ids)-1])
	if !ok {
		t.Fatal("watch failed")
	}
	drainedWatcher := make(chan struct{})
	go func() {
		defer close(drainedWatcher)
		for range live {
		}
	}()
	defer stop()

	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		s := waitTerminal(t, q, id)
		if s.State != StateDone {
			t.Fatalf("job %s state %q after drain", id, s.State)
		}
	}
	select {
	case <-drainedWatcher:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher channel never closed")
	}

	// Goroutine counts are noisy; poll until we're back at (or below) the
	// baseline plus slack for runtime helpers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- deadlines, restore, admission, journal ---

func TestRunTimeoutFailsJob(t *testing.T) {
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q := New(runner, Options{Workers: 1, RunTimeout: 30 * time.Millisecond})
	defer q.Drain(context.Background())
	s, err := q.Submit(context.Background(), testSpec(t, 41), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, s.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %q, want failed (deadline is not a cancel)", final.State)
	}
	if !strings.Contains(final.Error, "run deadline") {
		t.Fatalf("error %q does not mention the run deadline", final.Error)
	}
}

func TestRestoreTerminalJobQueryable(t *testing.T) {
	spec := testSpec(t, 43)
	fp, _ := spec.Fingerprint()
	q := New(okRunner(&Result{}), Options{Restore: []RestoredJob{
		{ID: "job-000007", Spec: spec, Fingerprint: fp, State: StateDone, Attempts: 2, CacheHit: true, Submitted: time.Unix(1, 0), Finished: time.Unix(2, 0)},
		{ID: "job-000008", Spec: spec, Fingerprint: fp, State: StateFailed, Attempts: 3, Error: "boom", Submitted: time.Unix(3, 0)},
	}})
	defer q.Drain(context.Background())

	s, ok := q.Get("job-000007")
	if !ok || s.State != StateDone || !s.CacheHit || s.Attempts != 2 {
		t.Fatalf("restored done job = %+v, ok=%v", s, ok)
	}
	if _, ok := q.Result("job-000007"); ok {
		t.Fatal("restored job should have no in-memory result")
	}
	f, ok := q.Get("job-000008")
	if !ok || f.State != StateFailed || f.Error != "boom" {
		t.Fatalf("restored failed job = %+v", f)
	}
	// Watch on a restored terminal job replays the synthetic history.
	history, live, stop, ok := q.Watch("job-000007")
	if !ok || len(history) == 0 || history[0].Stage != "restored" {
		t.Fatalf("history = %+v", history)
	}
	stop()
	for range live {
		t.Fatal("terminal restored job delivered live events")
	}
	// The ID sequence continues past the restored IDs.
	snap, err := q.Submit(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "job-000009" {
		t.Fatalf("next ID = %s, want job-000009", snap.ID)
	}
}

func TestRestoreReenqueuesNonTerminal(t *testing.T) {
	spec := testSpec(t, 44)
	fp, _ := spec.Fingerprint()
	q := New(okRunner(&Result{TableText: []byte("t")}), Options{Workers: 2, Restore: []RestoredJob{
		{ID: "job-000001", Spec: spec, Fingerprint: fp, State: StateQueued, Submitted: time.Unix(1, 0)},
		{ID: "job-000002", Spec: spec, Fingerprint: fp, State: StateRunning, Attempts: 1, Submitted: time.Unix(2, 0)},
	}})
	defer q.Drain(context.Background())
	for _, id := range []string{"job-000001", "job-000002"} {
		final := waitTerminal(t, q, id)
		if final.State != StateDone {
			t.Fatalf("restored job %s state %q, want done (error %q)", id, final.State, final.Error)
		}
		if res, ok := q.Result(id); !ok || string(res.TableText) != "t" {
			t.Fatalf("restored job %s result missing", id)
		}
	}
}

func TestRestoreSkipsInvalidIDs(t *testing.T) {
	spec := testSpec(t, 45)
	fp, _ := spec.Fingerprint()
	q := New(okRunner(&Result{}), Options{Restore: []RestoredJob{
		{ID: "not-a-job", Spec: spec, Fingerprint: fp, State: StateQueued},
		{ID: "job--3", Spec: spec, Fingerprint: fp, State: StateQueued},
	}})
	defer q.Drain(context.Background())
	if list := q.List(); len(list) != 0 {
		t.Fatalf("invalid restored jobs accepted: %+v", list)
	}
}

func TestAdmissionBoundCountsBacklog(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		started <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Result{}, nil
	}
	spec := testSpec(t, 46)
	fp, _ := spec.Fingerprint()
	// One restored job + QueueDepth 1: the restored backlog occupies the
	// admission budget until a worker picks it up.
	q := New(runner, Options{Workers: 1, QueueDepth: 1, Restore: []RestoredJob{
		{ID: "job-000001", Spec: spec, Fingerprint: fp, State: StateQueued, Submitted: time.Unix(1, 0)},
	}})
	defer func() {
		close(block)
		q.Drain(context.Background())
	}()
	<-started                                                                      // worker picked up the restored job; backlog is empty again
	if _, err := q.Submit(context.Background(), testSpec(t, 47), ""); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := q.Submit(context.Background(), testSpec(t, 48), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if b := q.Backlog(); b != 1 {
		t.Fatalf("backlog = %d, want 1", b)
	}
}

// recordingSink captures journal notifications for assertions.
type recordingSink struct {
	mu   sync.Mutex
	subs []string
	ends []string
}

func (r *recordingSink) Submitted(id, fp string, spec scenario.Spec, origin string, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if origin != "" {
		id += "(" + origin + ")"
	}
	r.subs = append(r.subs, id)
}

func (r *recordingSink) Finished(id string, state State, attempt int, cacheHit bool, errMsg string, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, fmt.Sprintf("%s:%s", id, state))
}

func (r *recordingSink) snapshot() ([]string, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.subs...), append([]string(nil), r.ends...)
}

func TestJournalSinkSeesLifecycle(t *testing.T) {
	sink := &recordingSink{}
	q := New(okRunner(&Result{}), Options{Workers: 1, Journal: sink})
	defer q.Drain(context.Background())
	s, err := q.Submit(context.Background(), testSpec(t, 49), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, s.ID)
	subs, ends := sink.snapshot()
	if len(subs) != 1 || subs[0] != s.ID {
		t.Fatalf("submissions journaled: %v", subs)
	}
	if want := s.ID + ":done"; len(ends) != 1 || ends[0] != want {
		t.Fatalf("end records journaled: %v, want [%s]", ends, want)
	}
}

func TestJournalSinkSeesQueuedCancel(t *testing.T) {
	sink := &recordingSink{}
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		started <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Result{}, nil
	}
	q := New(runner, Options{Workers: 1, Journal: sink})
	defer func() {
		close(block)
		q.Drain(context.Background())
	}()
	if _, err := q.Submit(context.Background(), testSpec(t, 50), ""); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := q.Submit(context.Background(), testSpec(t, 51), "")
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel(queued.ID)
	_, ends := sink.snapshot()
	found := false
	for _, end := range ends {
		if end == queued.ID+":canceled" {
			found = true
		}
	}
	if !found {
		t.Fatalf("queued cancel not journaled: %v", ends)
	}
}

func TestOnDoneFiresWithSnapshotAndResult(t *testing.T) {
	type completion struct {
		snap Snapshot
		res  *Result
	}
	got := make(chan completion, 4)
	q := New(okRunner(&Result{TableText: []byte("table")}), Options{
		Workers: 1,
		OnDone:  func(snap Snapshot, res *Result) { got <- completion{snap, res} },
	})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 91), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, s.ID)
	select {
	case c := <-got:
		if c.snap.ID != s.ID || c.snap.State != StateDone {
			t.Fatalf("OnDone snapshot = %+v", c.snap)
		}
		if c.res == nil || string(c.res.TableText) != "table" || c.res.Fingerprint != s.Fingerprint {
			t.Fatalf("OnDone result = %+v", c.res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone never fired for a done job")
	}
}

func TestOnDoneDoesNotFireOnFailure(t *testing.T) {
	fired := make(chan struct{}, 1)
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		return nil, errors.New("permanent failure")
	}
	q := New(runner, Options{
		Workers: 1,
		OnDone:  func(Snapshot, *Result) { fired <- struct{}{} },
	})
	defer q.Drain(context.Background())

	s, err := q.Submit(context.Background(), testSpec(t, 92), "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, q, s.ID); final.State != StateFailed {
		t.Fatalf("state = %q, want failed", final.State)
	}
	select {
	case <-fired:
		t.Fatal("OnDone fired for a failed job")
	case <-time.After(50 * time.Millisecond):
	}
}
