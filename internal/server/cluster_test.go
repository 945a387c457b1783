package server

// Worker-side cluster behaviors: the GET /v1/jobs?state= filter the
// gateway's reconciliation loop depends on, the ring-ownership check, and
// the X-Tempriv-Origin handoff tag.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tempriv/internal/jobs"
	"tempriv/internal/telemetry"
)

func listJobs(t *testing.T, ts *httptest.Server, query string) []jobs.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list%s: HTTP %d", query, resp.StatusCode)
	}
	var body struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	decodeBody(t, resp, &body)
	return body.Jobs
}

func TestListStateFilter(t *testing.T) {
	ts, q, _ := newTestServer(t, false)

	done := submit(t, ts, smallScenario)
	waitState(t, q, done.ID, jobs.StateDone)
	other := submit(t, ts, `{"version":1,"experiment":{"id":"fig2a","packets":10,"interarrivals":[4],"seed":2}}`)
	waitState(t, q, other.ID, jobs.StateDone)

	if got := len(listJobs(t, ts, "")); got != 2 {
		t.Fatalf("unfiltered list has %d jobs, want 2", got)
	}
	if got := len(listJobs(t, ts, "?state=done")); got != 2 {
		t.Fatalf("state=done list has %d jobs, want 2", got)
	}
	if got := len(listJobs(t, ts, "?state=queued,running")); got != 0 {
		t.Fatalf("state=queued,running list has %d jobs, want 0", got)
	}
	if got := len(listJobs(t, ts, "?state=done,failed,canceled")); got != 2 {
		t.Fatalf("terminal filter has %d jobs, want 2", got)
	}

	// Unknown states fail closed.
	resp, err := http.Get(ts.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	var errBody struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	decodeBody(t, resp, &errBody)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(errBody.Error, "bogus") {
		t.Fatalf("state=bogus: HTTP %d body %+v", resp.StatusCode, errBody)
	}
}

// TestOwnershipCheck: a worker that knows the ring accepts misdirected
// jobs (availability over placement) but counts them, names the expected
// owner in X-Tempriv-Owner, and stays silent for jobs it owns.
func TestOwnershipCheck(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := jobs.New(NewRunner(RunnerConfig{Registry: reg, ReplicateWorkers: 1}), jobs.Options{Workers: 1})
	defer drainQueue(t, q)

	owner := "w-self"
	srv := New(Config{
		Queue:     q,
		Registry:  reg,
		ClusterID: "w-self",
		ClusterOwns: func(fp string) (string, bool) {
			return owner, true
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Owned: no misdirection counted, header still names the owner.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Tempriv-Owner") != "w-self" {
		t.Fatalf("X-Tempriv-Owner = %q, want w-self", resp.Header.Get("X-Tempriv-Owner"))
	}
	resp.Body.Close()
	if got := reg.Counter("tempriv_cluster_misdirected_total").Value(); got != 0 {
		t.Fatalf("misdirected after owned submit = %d", got)
	}

	// Misdirected: accepted (202), counted, expected owner surfaced.
	owner = "w-other"
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("misdirected submit: HTTP %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("X-Tempriv-Owner") != "w-other" {
		t.Fatalf("X-Tempriv-Owner = %q, want w-other", resp.Header.Get("X-Tempriv-Owner"))
	}
	resp.Body.Close()
	if got := reg.Counter("tempriv_cluster_misdirected_total").Value(); got != 1 {
		t.Fatalf("misdirected after misdirected submit = %d, want 1", got)
	}
}

// TestHandoffOriginHeader: X-Tempriv-Origin: handoff tags the job's
// snapshot and queued event; arbitrary origin strings are ignored.
func TestHandoffOriginHeader(t *testing.T) {
	ts, q, _ := newTestServer(t, false)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(smallScenario))
	req.Header.Set("X-Tempriv-Origin", "handoff")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap jobs.Snapshot
	decodeBody(t, resp, &snap)
	if snap.Origin != jobs.OriginHandoff {
		t.Fatalf("snapshot origin = %q, want handoff", snap.Origin)
	}
	waitState(t, q, snap.ID, jobs.StateDone)
	if got, _ := q.Get(snap.ID); got.Origin != jobs.OriginHandoff {
		t.Fatalf("final snapshot origin = %q, want handoff", got.Origin)
	}

	// An unrecognized origin token must not pass through.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(
		`{"version":1,"experiment":{"id":"fig2a","packets":10,"interarrivals":[4],"seed":3}}`))
	req.Header.Set("X-Tempriv-Origin", "<script>alert(1)</script>")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap2 jobs.Snapshot
	decodeBody(t, resp, &snap2)
	if snap2.Origin != "" {
		t.Fatalf("arbitrary origin passed through: %q", snap2.Origin)
	}
}

func drainQueue(t *testing.T, q *jobs.Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	q.Drain(ctx)
}
