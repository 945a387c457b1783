package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tempriv/internal/faultfs"
	"tempriv/internal/jobs"
	"tempriv/internal/resultcache"
	"tempriv/internal/scenario"
	"tempriv/internal/telemetry"
)

// blockedQueue builds a queue whose runner parks every job until release is
// closed — the tool for exercising backpressure and in-flight shutdown.
func blockedQueue(t *testing.T, workers, depth int) (*jobs.Queue, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	runner := func(ctx context.Context, job *jobs.Job, progress func(stage, message string)) (*jobs.Result, error) {
		progress("run", "parked")
		select {
		case <-release:
			return &jobs.Result{Fingerprint: job.Fingerprint, TableText: []byte("x"), TableCSV: []byte("y"), Manifest: []byte("{}")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	q := jobs.New(runner, jobs.Options{Workers: workers, QueueDepth: depth})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Drain(ctx)
	})
	return q, release
}

func waitState(t *testing.T, q *jobs.Queue, id string, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := q.Get(id); ok && s.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, _ := q.Get(id)
	t.Fatalf("job %s never reached %s (at %s)", id, want, s.State)
}

func TestReadyzLifecycle(t *testing.T) {
	q, _ := blockedQueue(t, 1, 4)
	srv := New(Config{Queue: q})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(wantStatus int, wantState string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("readyz in %q: status %d, want %d (%s)", wantState, resp.StatusCode, wantStatus, body)
		}
		if wantStatus != http.StatusOK {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("not-ready response missing Retry-After")
			}
			if !strings.Contains(string(body), wantState) {
				t.Fatalf("body %s does not name state %q", body, wantState)
			}
		}
	}

	check(http.StatusServiceUnavailable, ReadyStarting)
	srv.SetReady(ReadyReplaying)
	check(http.StatusServiceUnavailable, ReadyReplaying)
	srv.SetReady(ReadyServing)
	check(http.StatusOK, ReadyServing)
	srv.SetReady(ReadyDraining)
	check(http.StatusServiceUnavailable, ReadyDraining)

	// Liveness never flinched through any of that.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d during drain", resp.StatusCode)
	}
}

// TestErrorContract drives every handler failure mode and asserts the
// uniform JSON error body ({"error":..., "status":...}) plus Retry-After
// on backpressure statuses — including the mux-generated 404/405 that no
// handler ever sees.
func TestErrorContract(t *testing.T) {
	// A full queue: one worker parked on a job, one queued, so the next
	// submission sheds.
	q, _ := blockedQueue(t, 1, 1)
	reg := telemetry.NewRegistry()
	srv := New(Config{Queue: q, Registry: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec, err := scenario.Parse([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	running, err := q.Submit(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running.ID, jobs.StateRunning)
	spec2, _ := scenario.Parse([]byte(strings.Replace(smallScenario, `"seed":1`, `"seed":2`, 1)))
	if _, err := q.Submit(context.Background(), spec2, ""); err != nil {
		t.Fatal(err)
	}

	// A drained queue for the 503 mode.
	qDrained, _ := blockedQueue(t, 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	qDrained.Drain(ctx)
	cancel()
	tsDrained := httptest.NewServer(New(Config{Queue: qDrained}))
	defer tsDrained.Close()

	shed := strings.Replace(smallScenario, `"seed":1`, `"seed":3`, 1)
	cases := []struct {
		name      string
		method    string
		url       string
		body      string
		status    int
		retryHdr  bool
		errSubstr string
	}{
		{"submit bad json", "POST", ts.URL + "/v1/jobs", "not json", http.StatusBadRequest, false, ""},
		{"submit invalid spec", "POST", ts.URL + "/v1/jobs", `{"version":1}`, http.StatusBadRequest, false, ""},
		{"submit oversized", "POST", ts.URL + "/v1/jobs", strings.Repeat(" ", 1<<20+10), http.StatusRequestEntityTooLarge, false, ""},
		{"submit queue full", "POST", ts.URL + "/v1/jobs", shed, http.StatusTooManyRequests, true, "full"},
		{"submit draining", "POST", tsDrained.URL + "/v1/jobs", shed, http.StatusServiceUnavailable, true, "drain"},
		{"status unknown job", "GET", ts.URL + "/v1/jobs/job-999999", "", http.StatusNotFound, false, "no such job"},
		{"cancel unknown job", "DELETE", ts.URL + "/v1/jobs/job-999999", "", http.StatusNotFound, false, "no such job"},
		{"result unknown job", "GET", ts.URL + "/v1/jobs/job-999999/result", "", http.StatusNotFound, false, "no such job"},
		{"events unknown job", "GET", ts.URL + "/v1/jobs/job-999999/events", "", http.StatusNotFound, false, "no such job"},
		// The in-flight 409 hints Retry-After so pollers back off politely.
		{"result before done", "GET", ts.URL + "/v1/jobs/" + running.ID + "/result", "", http.StatusConflict, true, "no result"},
		{"readyz not ready", "GET", ts.URL + "/readyz", "", http.StatusServiceUnavailable, true, "not ready"},
		{"mux unknown route", "GET", ts.URL + "/v1/nope", "", http.StatusNotFound, false, ""},
		{"mux wrong method", "PUT", ts.URL + "/v1/jobs", "{}", http.StatusMethodNotAllowed, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("content type %q, want JSON (%s)", ct, raw)
			}
			var e errorBody
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("non-JSON error body %q: %v", raw, err)
			}
			if e.Error == "" || e.Status != tc.status {
				t.Fatalf("error body %+v, want status %d and a message", e, tc.status)
			}
			if tc.errSubstr != "" && !strings.Contains(e.Error, tc.errSubstr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.errSubstr)
			}
			if got := resp.Header.Get("Retry-After") != ""; got != tc.retryHdr {
				t.Fatalf("Retry-After present=%v, want %v", got, tc.retryHdr)
			}
		})
	}

	// The rejections were counted as sheds.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "tempriv_sheds_total 1") {
		t.Fatalf("metrics missing shed count:\n%s", metrics)
	}
}

func TestRestoredDoneJobServesResultFromCache(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	entry := &resultcache.Entry{
		Fingerprint: fp,
		TableText:   []byte("restored table"),
		TableCSV:    []byte("a,b\n"),
		Manifest:    []byte(`{"kind":"experiment"}`),
	}
	if err := cache.Put(entry); err != nil {
		t.Fatal(err)
	}
	restored := jobs.RestoredJob{
		ID: "job-000042", Spec: spec, Fingerprint: fp,
		State: jobs.StateDone, Attempts: 1,
		Submitted: time.Now().Add(-time.Hour), Finished: time.Now().Add(-time.Hour),
	}
	q := jobs.New(NewRunner(RunnerConfig{Cache: cache, ReplicateWorkers: 1}), jobs.Options{
		Workers: 1,
		Restore: []jobs.RestoredJob{restored},
	})
	defer q.Drain(context.Background())
	ts := httptest.NewServer(New(Config{Queue: q, Cache: cache}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/job-000042/result")
	if err != nil {
		t.Fatal(err)
	}
	var res resultBody
	decodeBody(t, resp, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored result status %d", resp.StatusCode)
	}
	if res.Fingerprint != fp || res.TableText != "restored table" {
		t.Fatalf("restored result %+v", res)
	}
}

func TestRestoredDoneJobWithLostCacheEntryIsGone(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(NewRunner(RunnerConfig{Cache: cache, ReplicateWorkers: 1}), jobs.Options{
		Workers: 1,
		Restore: []jobs.RestoredJob{{
			ID: "job-000007", Spec: spec, Fingerprint: fp, State: jobs.StateDone, Attempts: 1,
		}},
	})
	defer q.Drain(context.Background())
	ts := httptest.NewServer(New(Config{Queue: q, Cache: cache}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/job-000007/result")
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("lost restored result: status %d, want 410 (%+v)", resp.StatusCode, e)
	}
	if !strings.Contains(e.Error, "resubmit") {
		t.Fatalf("410 body should tell the client to resubmit: %+v", e)
	}
}

// TestChaosSickDiskKeepsServing is the degradation acceptance check: with
// ENOSPC and EIO injected into the result cache's filesystem, submissions
// still answer 202 (never 5xx) and every job still completes — the breaker
// opens and the service degrades to compute-always instead of failing.
func TestChaosSickDiskKeepsServing(t *testing.T) {
	ff := faultfs.NewFaulty(faultfs.OS{})
	cache, err := resultcache.OpenConfig(resultcache.Config{Dir: t.TempDir(), FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	q := jobs.New(NewRunner(RunnerConfig{Cache: cache, Registry: reg, ReplicateWorkers: 1}), jobs.Options{Workers: 2, QueueDepth: 16})
	defer q.Drain(context.Background())
	ts := httptest.NewServer(New(Config{Queue: q, Cache: cache, Registry: reg}))
	defer ts.Close()

	// Disk goes fully sick: reads EIO, writes ENOSPC.
	ff.Set(faultfs.OpRead, faultfs.Fault{Err: faultfs.ErrIO})
	ff.Set(faultfs.OpWrite, faultfs.Fault{Err: faultfs.ErrNoSpace})

	var ids []string
	for i := 0; i < 6; i++ {
		doc := strings.Replace(smallScenario, `"seed":1`, fmt.Sprintf(`"seed":%d`, 100+i), 1)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("submission %d answered %d on a sick disk: %s", i, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d: %s", i, resp.StatusCode, body)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		deadline := time.Now().Add(15 * time.Second)
		for {
			s, ok := q.Get(id)
			if !ok {
				t.Fatalf("job %s vanished", id)
			}
			if s.State.Terminal() {
				if s.State != jobs.StateDone {
					t.Fatalf("job %s on sick disk: %+v", id, s)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished (state %s)", id, s.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The breaker opened and started bypassing; nothing corrupt was served.
	st := cache.Stats()
	if st.Breaker == resultcache.BreakerClosed {
		t.Fatalf("sustained disk faults never opened the breaker: %+v", st)
	}
	if st.Hits != 0 {
		t.Fatalf("sick disk produced cache hits: %+v", st)
	}
	if st.Bypassed == 0 {
		t.Fatalf("open breaker never bypassed: %+v", st)
	}
}

// TestShutdownTerminatesEventStreams holds live /events streams open on a
// parked job, stops the server, and asserts every stream ends promptly and
// no handler goroutines are left behind.
func TestShutdownTerminatesEventStreams(t *testing.T) {
	q, _ := blockedQueue(t, 1, 8)
	srv := New(Config{Queue: q})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec, err := scenario.Parse([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := q.Submit(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, jobs.StateRunning)
	before := runtime.NumGoroutine()

	const streams = 4
	done := make(chan error, streams)
	for i := 0; i < streams; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events status %d", resp.StatusCode)
		}
		go func() {
			_, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			done <- err
		}()
	}
	// Streams are live (the job is parked mid-run, so they would otherwise
	// stay open indefinitely). Stop must end them all.
	srv.Stop()
	for i := 0; i < streams; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("stream %d ended with transport error: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream %d still open %d after Stop", i, streams)
		}
	}
	// Handler goroutines wind down (poll: the server needs a moment to
	// retire connections).
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The client keeps idle keep-alive connections (one read + one
		// write goroutine each); drop them so only server-side goroutines
		// can hold the count up.
		http.DefaultClient.CloseIdleConnections()
		if g := runtime.NumGoroutine(); g <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: before=%d now=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
