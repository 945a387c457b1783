package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDrainTimeoutRunsJobsAfterRestart is the SIGTERM counterpart of
// TestCrashRecovery: cancel the daemon's context (what SIGTERM does) while
// one job runs and another waits behind it, with a drain timeout too short
// for either to finish. Neither may be journaled as failed: the next boot
// on the same journal re-enqueues both, resumes the interrupted one from
// its chunks, and runs both to done.
func TestDrainTimeoutRunsJobsAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-boot e2e")
	}
	args := []string{"-workers", "1", "-drain-timeout", "50ms",
		"-cache", t.TempDir(), "-journal", t.TempDir(), "-chunks", t.TempDir()}

	base, shutdown := startDaemon(t, args...)
	waitReady(t, base)
	running := postJob(t, base, slowScenario)
	queued := postJob(t, base, strings.Replace(slowScenario, `"seed":7`, `"seed":8`, 1))
	waitChunks(t, base, running.ID, 1)
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	base2, shutdown2 := startDaemon(t, args...)
	waitReady(t, base2)
	for _, id := range []string{running.ID, queued.ID} {
		if v := awaitJob(t, base2, id); v.State != "done" {
			t.Fatalf("job %s after restart: %+v", id, v)
		}
		if st, body := getBody(t, base2+"/v1/jobs/"+id+"/result"); st != http.StatusOK || len(body) == 0 {
			t.Fatalf("job %s result after restart: %d %s", id, st, body)
		}
	}
	if skipped := promCounter(t, base2, "tempriv_replicates_skipped_on_resume_total"); skipped < 1 {
		t.Fatalf("replicates skipped on resume = %d, want >= 1", skipped)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("shutdown after restart: %v", err)
	}
}

// waitChunks polls until the running job has persisted at least n
// replicate chunks.
func waitChunks(t *testing.T, base, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		if err := decodeInto(resp, &v); err != nil {
			t.Fatal(err)
		}
		if v.State != "running" && v.State != "queued" {
			t.Fatalf("job %s reached %s before persisting %d chunk(s)", id, v.State, n)
		}
		if v.ChunksPersisted >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never persisted %d chunk(s)", id, n)
}

// TestRestartKeepsJobOrigin: a job submitted with the handoff origin keeps
// "origin":"handoff" in its snapshot after the daemon boots again on the
// same journal.
func TestRestartKeepsJobOrigin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-boot e2e")
	}
	args := []string{"-journal", t.TempDir()}
	base, shutdown := startDaemon(t, args...)
	waitReady(t, base)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tempriv-Origin", "handoff")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job jobView
	if err := decodeInto(resp, &job); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	if v := awaitJob(t, base, job.ID); v.State != "done" {
		t.Fatalf("job before restart: %+v", v)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	base2, shutdown2 := startDaemon(t, args...)
	waitReady(t, base2)
	st, body := getBody(t, base2+"/v1/jobs/"+job.ID)
	var snap struct {
		Origin string `json:"origin"`
	}
	if err := json.Unmarshal(body, &snap); err != nil || st != http.StatusOK || snap.Origin != "handoff" {
		t.Fatalf("job after restart: %d %s", st, body)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("shutdown after restart: %v", err)
	}
}
