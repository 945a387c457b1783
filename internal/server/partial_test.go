package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tempriv/internal/jobs"
	"tempriv/internal/report"
	"tempriv/internal/resultcache"
	"tempriv/internal/resultstream"
	"tempriv/internal/scenario"
	"tempriv/internal/telemetry"
)

const replicatedScenario = `{"version":1,"simulation":{
	"topology":{"kind":"line","hops":3},"packets":20,"replicates":3}}`

// seedChunks persists frames for reps under the spec's fingerprint, as a
// crashed earlier run would have, and returns the fingerprint.
func seedChunks(t *testing.T, store *resultstream.Store, doc string, reps ...int) string {
	t.Helper()
	spec, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.OpenWriter(fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
		tab.AddRow("only", float64(rep))
		payload, err := resultstream.EncodeTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rep, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fp
}

// readPartial fetches ?partial=1 and splits it into replicate lines and the
// trailing marker.
func readPartial(t *testing.T, url string) (*http.Response, []partialLine, partialLine) {
	t.Helper()
	resp, err := http.Get(url + "?partial=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial status %d", resp.StatusCode)
	}
	var lines []partialLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ln partialLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || lines[len(lines)-1].Complete == nil {
		t.Fatalf("stream has no completeness marker: %+v", lines)
	}
	return resp, lines[:len(lines)-1], lines[len(lines)-1]
}

func TestPartialResultStreamsPersistedReplicates(t *testing.T) {
	store, err := resultstream.Open(t.TempDir(), resultstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedChunks(t, store, replicatedScenario, 0, 2)

	q, release := blockedQueue(t, 1, 4)
	ts := httptest.NewServer(New(Config{Queue: q, Chunks: store}))
	defer ts.Close()

	snap := submit(t, ts, replicatedScenario)
	waitState(t, q, snap.ID, jobs.StateRunning)

	// In flight: the plain result is 409 + Retry-After, and ?partial=1
	// serves the two surviving replicates plus an incomplete marker.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("in-flight result: status %d Retry-After %q, want 409 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	presp, reps, marker := readPartial(t, ts.URL+"/v1/jobs/"+snap.ID+"/result")
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if presp.Header.Get("Retry-After") != "2" {
		t.Fatalf("incomplete partial lacks Retry-After (got %q)", presp.Header.Get("Retry-After"))
	}
	if len(reps) != 2 || *reps[0].Rep != 0 || *reps[1].Rep != 2 {
		t.Fatalf("replicate lines = %+v, want reps 0 and 2 in order", reps)
	}
	for _, ln := range reps {
		if _, err := resultstream.DecodeTable(ln.Table); err != nil {
			t.Fatalf("replicate %d table does not decode: %v", *ln.Rep, err)
		}
	}
	if *marker.Complete || marker.ReplicatesTotal != 3 || marker.ReplicatesDone != 2 {
		t.Fatalf("marker = %+v, want incomplete 2/3", marker)
	}

	// After completion the marker flips and the retry hint goes away.
	close(release)
	waitDone(t, ts, snap.ID)
	presp, _, marker = readPartial(t, ts.URL+"/v1/jobs/"+snap.ID+"/result")
	if !*marker.Complete || marker.State != string(jobs.StateDone) {
		t.Fatalf("post-done marker = %+v, want complete", marker)
	}
	if presp.Header.Get("Retry-After") != "" {
		t.Fatal("complete partial still hints Retry-After")
	}
}

func TestPartialResultWithoutChunkStoreIs404(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	snap := submit(t, ts, smallScenario)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result?partial=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when no chunk store is configured", resp.StatusCode)
	}
}

func TestRunnerResumesFromChunksAndCleansUp(t *testing.T) {
	// End-to-end through the real runner: seeded chunks are resumed (skip
	// counter moves), the result matches a chunk-free baseline byte for
	// byte, and the chunks are removed once the result is cached.
	dir := t.TempDir()
	store, err := resultstream.Open(dir, resultstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline from a chunk-free server.
	ts0, _, _ := newTestServer(t, false)
	base := submit(t, ts0, replicatedScenario)
	waitDone(t, ts0, base.ID)
	want := fetchResult(t, ts0, base.ID)

	// Seed genuine chunks by running once with a sink, then dropping one
	// frame to fake a mid-job crash.
	spec, err := scenario.Parse([]byte(replicatedScenario))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sink, err := store.Sink(fp, spec.Replicates(), resultstream.SinkHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(t.Context(), spec, scenario.Options{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fp+".chunks.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := bytes.SplitAfter(data, []byte("\n"))
	if len(frames) < 3 {
		t.Fatalf("expected 3 chunk frames, got %d", len(frames))
	}
	if err := os.WriteFile(path, bytes.Join(frames[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	q := jobs.New(NewRunner(RunnerConfig{Cache: cache, Registry: reg, ReplicateWorkers: 1, Chunks: store}), jobs.Options{Workers: 1})
	ts := httptest.NewServer(New(Config{Queue: q, Cache: cache, Chunks: store, Registry: reg}))
	defer func() {
		ts.Close()
		q.Drain(t.Context())
	}()

	snap := submit(t, ts, replicatedScenario)
	final := waitDone(t, ts, snap.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s", final.State)
	}
	if got := fetchResult(t, ts, snap.ID); string(got) != string(want) {
		t.Fatal("resumed result differs from chunk-free baseline")
	}
	if v := reg.Counter("tempriv_replicates_skipped_on_resume_total").Value(); v != 2 {
		t.Fatalf("skipped-on-resume = %d, want 2", v)
	}
	if v := reg.Counter("tempriv_chunks_written_total").Value(); v != 1 {
		t.Fatalf("chunks written = %d, want 1 (only the missing replicate)", v)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("chunk file survives after the result is cached: %v", err)
	}
	if final.ChunksPersisted < 2 {
		t.Fatalf("snapshot ChunksPersisted = %d, want >= 2", final.ChunksPersisted)
	}
}

func TestEventsKeepaliveOnIdleStream(t *testing.T) {
	q, release := blockedQueue(t, 1, 4)
	srv := New(Config{Queue: q})
	srv.EventKeepalive = 5 * time.Millisecond
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

	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	keepalives := 0
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for keepalives < 2 {
		select {
		case ln, open := <-lines:
			if !open {
				t.Fatal("event stream closed before any keepalive")
			}
			var probe struct {
				Keepalive bool `json:"keepalive"`
			}
			if err := json.Unmarshal([]byte(ln), &probe); err != nil {
				t.Fatalf("non-JSON event line %q: %v", ln, err)
			}
			if probe.Keepalive {
				keepalives++
			}
		case <-deadline:
			t.Fatalf("saw %d keepalive line(s) in 5s, want 2", keepalives)
		}
	}
	close(release)
}
