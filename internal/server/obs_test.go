package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tempriv/internal/jobs"
	"tempriv/internal/obs"
	"tempriv/internal/resultcache"
	"tempriv/internal/resultstream"
	"tempriv/internal/telemetry"
)

// newTracedServer assembles the full observability stack: cache, chunk
// store, tracer, SLOs — the wiring temprivd ships with.
func newTracedServer(t *testing.T) (*httptest.Server, *obs.Tracer, *telemetry.Registry) {
	t.Helper()
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := resultstream.Open(t.TempDir(), resultstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tracer := obs.New(obs.Options{})
	cachedSLO, err := obs.NewSLO(reg, obs.SLOOptions{
		Name: "cached_result", Objective: 0.99, Threshold: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	requestSLO, err := obs.NewSLO(reg, obs.SLOOptions{
		Name: "request", Objective: 0.99, Threshold: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(RunnerConfig{
		Cache: cache, Registry: reg, ReplicateWorkers: 1, Chunks: chunks,
		CachedResultSLO: cachedSLO,
	})
	q := jobs.New(runner, jobs.Options{Workers: 2})
	ts := httptest.NewServer(New(Config{
		Queue: q, Cache: cache, Chunks: chunks, Registry: reg,
		Tracer: tracer, SLOs: obs.SLOSet{requestSLO, cachedSLO}, RequestSLO: requestSLO,
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Drain(ctx)
	})
	return ts, tracer, reg
}

// findSpans collects every span named name anywhere in the tree.
func findSpans(root *obs.SpanTree, name string) []*obs.SpanTree {
	var out []*obs.SpanTree
	if root == nil {
		return nil
	}
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

func fetchTrace(t *testing.T, ts *httptest.Server, jobID string) *obs.TraceTree {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/traces/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var tree obs.TraceTree
	decodeBody(t, resp, &tree)
	return &tree
}

func TestTraceFollowsJobEndToEnd(t *testing.T) {
	ts, _, _ := newTracedServer(t)

	// Submit with a client-supplied trace ID; it must be echoed back.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(replicatedScenario))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "client-trace-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "client-trace-e2e" {
		t.Fatalf("X-Trace-Id echoed %q, want client-trace-e2e", got)
	}
	var snap jobs.Snapshot
	decodeBody(t, resp, &snap)
	waitDone(t, ts, snap.ID)

	tree := fetchTrace(t, ts, snap.ID)
	if tree.TraceID != "client-trace-e2e" || tree.JobID != snap.ID {
		t.Fatalf("trace identity: %+v", tree)
	}
	if !tree.Complete {
		t.Fatal("trace still open after the job finished")
	}
	if tree.Root.Name != "job" {
		t.Fatalf("root span %q, want job", tree.Root.Name)
	}
	// Every pipeline stage must appear exactly where the architecture puts
	// it: ingress and queue under the root, cache/engine/chunk under the
	// attempt, one replicate span per replicate under the engine.
	for _, want := range []struct {
		name  string
		count int
	}{
		{"ingress", 1}, {"queue", 1}, {"attempt", 1},
		{"engine", 1}, {"replicate", 3}, {"render", 1}, {"chunk", 3},
	} {
		got := findSpans(tree.Root, want.name)
		if len(got) != want.count {
			t.Errorf("%d %q spans, want %d", len(got), want.name, want.count)
		}
	}
	// The first cache consultation is a miss.
	cacheSpans := findSpans(tree.Root, "cache")
	if len(cacheSpans) != 2 { // get (miss) + put
		t.Fatalf("%d cache spans, want 2 (get+put)", len(cacheSpans))
	}
	if cacheSpans[0].Attrs["outcome"] != "miss" || cacheSpans[0].Attrs["op"] != "get" {
		t.Errorf("first cache span attrs: %v", cacheSpans[0].Attrs)
	}
	if cacheSpans[1].Attrs["op"] != "put" {
		t.Errorf("second cache span attrs: %v", cacheSpans[1].Attrs)
	}
	// Timestamps are monotonic: every span starts at or after its parent
	// and no span is left open.
	var walk func(p *obs.SpanTree)
	var closed int
	walk = func(p *obs.SpanTree) {
		if p.DurationNS < 0 {
			t.Errorf("span %q still open in a complete trace", p.Name)
		}
		closed++
		for _, c := range p.Children {
			if c.StartOffsetNS < p.StartOffsetNS {
				t.Errorf("span %q starts before its parent %q (%d < %d)",
					c.Name, p.Name, c.StartOffsetNS, p.StartOffsetNS)
			}
			walk(c)
		}
	}
	walk(tree.Root)
	if closed != tree.SpanCount {
		t.Errorf("walked %d spans, tree reports %d", closed, tree.SpanCount)
	}
}

func TestTraceCacheHitObservesSLO(t *testing.T) {
	ts, _, reg := newTracedServer(t)
	first := submit(t, ts, replicatedScenario)
	waitDone(t, ts, first.ID)
	second := submit(t, ts, replicatedScenario)
	snap := waitDone(t, ts, second.ID)
	if !snap.CacheHit {
		t.Fatal("second run not served from cache")
	}
	tree := fetchTrace(t, ts, second.ID)
	cacheSpans := findSpans(tree.Root, "cache")
	if len(cacheSpans) != 1 || cacheSpans[0].Attrs["outcome"] != "hit" {
		t.Fatalf("cache-hit trace spans: %d %v", len(cacheSpans), cacheSpans)
	}
	if len(findSpans(tree.Root, "engine")) != 0 {
		t.Error("cache hit ran the engine")
	}
	good := reg.Counter("tempriv_slo_cached_result_good_total").Value()
	bad := reg.Counter("tempriv_slo_cached_result_bad_total").Value()
	if good+bad != 1 {
		t.Fatalf("cached-result SLO observed %d times, want 1", good+bad)
	}
}

func TestTraceNotFound(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	resp, err := http.Get(ts.URL + "/v1/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status %d, want 404", resp.StatusCode)
	}
}

func TestTracerlessServerServes404Traces(t *testing.T) {
	// The compat constructor has no tracer: submissions work, traces 404.
	ts, _, _ := newTestServer(t, false)
	snap := submit(t, ts, smallScenario)
	waitDone(t, ts, snap.ID)
	resp, err := http.Get(ts.URL + "/v1/traces/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traceless trace status %d, want 404", resp.StatusCode)
	}
}

func TestRejectedSubmissionStillTraced(t *testing.T) {
	ts, tracer, _ := newTracedServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "rejected-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	tree, ok := tracer.ByID("rejected-trace-1")
	if !ok {
		t.Fatal("rejected submission left no trace")
	}
	if !tree.Complete || tree.JobID != "" {
		t.Fatalf("rejected trace: %+v", tree)
	}
	if tree.Root.Attrs["status"] != "400" {
		t.Fatalf("rejected trace root attrs: %v", tree.Root.Attrs)
	}
}

// TestDebugEndpointsGate covers both settings of the -debug-endpoints flag:
// registered by default, absent (as JSON 404s) when disabled.
func TestDebugEndpointsGate(t *testing.T) {
	paths := []string{"/debug/pprof/", "/debug/vars"}
	for _, disabled := range []bool{false, true} {
		q := jobs.New(func(ctx context.Context, job *jobs.Job, progress func(string, string)) (*jobs.Result, error) {
			return &jobs.Result{}, nil
		}, jobs.Options{Workers: 1})
		srv := httptest.NewServer(New(Config{Queue: q, DisableDebugEndpoints: disabled}))
		for _, path := range paths {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			wantStatus := http.StatusOK
			if disabled {
				wantStatus = http.StatusNotFound
			}
			if resp.StatusCode != wantStatus {
				t.Errorf("disabled=%v: GET %s = %d, want %d", disabled, path, resp.StatusCode, wantStatus)
			}
			if disabled && !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
				t.Errorf("disabled %s 404 is not the JSON error contract (%s)",
					path, resp.Header.Get("Content-Type"))
			}
			resp.Body.Close()
		}
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		q.Drain(ctx)
		cancel()
	}
}
