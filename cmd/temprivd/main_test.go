package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

const testScenario = `{"version":1,"experiment":{"id":"fig2a","packets":10,"interarrivals":[4],"seed":1}}`

// startDaemon runs the daemon against an ephemeral port and returns its base
// URL plus a shutdown func that triggers the drain and waits for run to
// return.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"-addr", "localhost:0", "-workers", "2", "-drain-timeout", "10s"}, extraArgs...)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return "http://" + addr, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			return context.DeadlineExceeded
		}
	}
}

type jobView struct {
	ID              string `json:"id"`
	Fingerprint     string `json:"fingerprint"`
	State           string `json:"state"`
	CacheHit        bool   `json:"cache_hit"`
	Error           string `json:"error"`
	ChunksPersisted int    `json:"chunks_persisted"`
}

func postJob(t *testing.T, base, doc string) jobView {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func awaitJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case "done", "failed", "canceled":
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobView{}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEndToEndCacheHit is the full service loop from the issue: boot the
// daemon with a cache, submit the same scenario twice over HTTP, and require
// the second submission to be a cache hit with a byte-identical result body.
func TestEndToEndCacheHit(t *testing.T) {
	base, shutdown := startDaemon(t, "-cache", t.TempDir())

	first := postJob(t, base, testScenario)
	f1 := awaitJob(t, base, first.ID)
	if f1.State != "done" || f1.CacheHit {
		t.Fatalf("first job: %+v", f1)
	}
	status, body1 := getBody(t, base+"/v1/jobs/"+first.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("first result status %d", status)
	}

	second := postJob(t, base, testScenario)
	f2 := awaitJob(t, base, second.ID)
	if f2.State != "done" {
		t.Fatalf("second job: %+v", f2)
	}
	if !f2.CacheHit {
		t.Fatal("second identical submission was not a cache hit")
	}
	if f2.Fingerprint != f1.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", f1.Fingerprint, f2.Fingerprint)
	}
	status, body2 := getBody(t, base+"/v1/jobs/"+second.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("second result status %d", status)
	}
	if string(body1) != string(body2) {
		t.Fatalf("cache hit result not byte-identical:\n%s\nvs\n%s", body1, body2)
	}

	// Different seed: new fingerprint, fresh run.
	third := postJob(t, base, strings.Replace(testScenario, `"seed":1`, `"seed":3`, 1))
	if third.Fingerprint == first.Fingerprint {
		t.Fatal("seed change did not change the fingerprint")
	}
	if f3 := awaitJob(t, base, third.ID); f3.State != "done" || f3.CacheHit {
		t.Fatalf("third job: %+v", f3)
	}

	status, stats := getBody(t, base+"/v1/cache")
	if status != http.StatusOK || !strings.Contains(string(stats), `"enabled": true`) {
		t.Fatalf("cache stats (%d): %s", status, stats)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestGracefulShutdown boots, checks health and metrics, then cancels the
// daemon context and requires run() to return cleanly without leaking the
// worker goroutines.
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	base, shutdown := startDaemon(t)

	if status, _ := getBody(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if _, metrics := getBody(t, base+"/metrics"); !strings.Contains(string(metrics), "temprivd_runs_total") {
		t.Fatalf("metrics missing counters:\n%s", metrics)
	}

	job := postJob(t, base, testScenario)
	awaitJob(t, base, job.ID)

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The listener is closed after the drain.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-workers", "-1"},
		{"-queue-depth", "0"},
		{"-j", "-1"},
		{"-run-timeout", "-1s"},
		{"-drain-timeout", "0s"},
	}
	for _, args := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, append([]string{"-addr", "localhost:0"}, args...), nil)
		cancel()
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
