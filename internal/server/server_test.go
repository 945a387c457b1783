package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tempriv/internal/jobs"
	"tempriv/internal/resultcache"
	"tempriv/internal/scenario"
	"tempriv/internal/telemetry"
)

const smallScenario = `{"version":1,"experiment":{"id":"fig2a","packets":10,"interarrivals":[4],"seed":1}}`

func newTestServer(t *testing.T, withCache bool) (*httptest.Server, *jobs.Queue, *resultcache.Cache) {
	t.Helper()
	var cache *resultcache.Cache
	if withCache {
		var err error
		if cache, err = resultcache.Open(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	q := jobs.New(NewRunner(RunnerConfig{Cache: cache, Registry: reg, ReplicateWorkers: 1}), jobs.Options{Workers: 2})
	ts := httptest.NewServer(New(Config{Queue: q, Cache: cache, Registry: reg}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Drain(ctx)
	})
	return ts, q, cache
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func submit(t *testing.T, ts *httptest.Server, doc string) jobs.Snapshot {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	decodeBody(t, resp, &snap)
	return snap
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap jobs.Snapshot
		decodeBody(t, resp, &snap)
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Snapshot{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	return body
}

func TestSubmitInvalidSpec(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	cases := []string{
		`not json`,
		`{"version":99,"experiment":{"id":"fig2a"}}`,
		`{"version":1,"experiment":{"id":"fig2a","packets":-1}}`,
		`{"version":1}`,
	}
	for _, doc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %q: status %d, want 400", doc, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("doc %q: empty error message", doc)
		}
	}
}

func TestSubmitOversizedSpec(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	huge := strings.Repeat(" ", 1<<20+10) + smallScenario
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestSubmitRunResult(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	snap := submit(t, ts, smallScenario)
	if snap.ID == "" || snap.Fingerprint == "" {
		t.Fatalf("incomplete snapshot: %+v", snap)
	}
	final := waitDone(t, ts, snap.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %q, want done (error %q)", final.State, final.Error)
	}
	body := fetchResult(t, ts, snap.ID)
	var res struct {
		Fingerprint string          `json:"fingerprint"`
		TableText   string          `json:"table_text"`
		TableCSV    string          `json:"table_csv"`
		Manifest    json.RawMessage `json:"manifest"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != snap.Fingerprint || res.TableText == "" || res.TableCSV == "" || len(res.Manifest) == 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
}

func TestRepeatSubmissionHitsCacheByteIdentical(t *testing.T) {
	ts, _, cache := newTestServer(t, true)

	first := submit(t, ts, smallScenario)
	if s := waitDone(t, ts, first.ID); s.State != jobs.StateDone || s.CacheHit {
		t.Fatalf("first run: %+v", s)
	}
	firstBody := fetchResult(t, ts, first.ID)

	second := submit(t, ts, smallScenario)
	finalSecond := waitDone(t, ts, second.ID)
	if finalSecond.State != jobs.StateDone {
		t.Fatalf("second run failed: %+v", finalSecond)
	}
	if !finalSecond.CacheHit {
		t.Fatal("second identical submission was not a cache hit")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("identical specs fingerprinted differently: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	secondBody := fetchResult(t, ts, second.ID)
	if string(firstBody) != string(secondBody) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", firstBody, secondBody)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", st)
	}

	// A changed seed is a different scenario: distinct fingerprint, fresh run.
	changed := strings.Replace(smallScenario, `"seed":1`, `"seed":2`, 1)
	third := submit(t, ts, changed)
	if third.Fingerprint == first.Fingerprint {
		t.Fatal("seed change did not change the fingerprint")
	}
	if s := waitDone(t, ts, third.ID); s.State != jobs.StateDone || s.CacheHit {
		t.Fatalf("changed-seed run: %+v", s)
	}
}

func TestEventsStreamJSONL(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	snap := submit(t, ts, smallScenario)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "jsonl") {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var states []jobs.State
	lastSeq := -1
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("events out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		states = append(states, ev.State)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != jobs.StateDone {
		t.Fatalf("stream states %v, want trailing done", states)
	}
}

func TestCancelEndpoint(t *testing.T) {
	ts, q, _ := newTestServer(t, false)
	_ = q
	// A replicated scenario is slow enough to catch mid-flight; worst case it
	// finishes first and cancel is a no-op on a terminal job, so accept both.
	doc := `{"version":1,"experiment":{"id":"fig3","packets":300,"interarrivals":[2,4],"replicates":4,"seed":1}}`
	snap := submit(t, ts, doc)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitDone(t, ts, snap.ID)
	if final.State != jobs.StateCanceled && final.State != jobs.StateDone {
		t.Fatalf("state %q after cancel", final.State)
	}
}

func TestNotFoundAndConflict(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result", "/v1/jobs/job-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Result of a job that has not finished (or failed) is a 409.
	snap := submit(t, ts, `{"version":1,"experiment":{"id":"fig3","packets":300,"interarrivals":[2,4],"replicates":8,"seed":1}}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-completion result status %d, want 409 (or 200 if it already finished)", resp.StatusCode)
	}
}

func TestListAndAuxEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t, true)
	snap := submit(t, ts, smallScenario)
	waitDone(t, ts, snap.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Fatalf("list %+v", list)
	}

	resp, err = http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	var cs struct {
		Enabled bool `json:"enabled"`
		Stats   struct {
			Misses int64 `json:"misses"`
		} `json:"stats"`
	}
	decodeBody(t, resp, &cs)
	if !cs.Enabled || cs.Stats.Misses != 1 {
		t.Fatalf("cache stats %+v", cs)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"temprivd_cache_misses_total", "temprivd_runs_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %s:\n%s", want, metrics)
		}
	}
}

func TestRunnerWithoutCacheRunsFresh(t *testing.T) {
	// The runner works with no cache at all: every submission simulates.
	runner := NewRunner(RunnerConfig{ReplicateWorkers: 1})
	q := jobs.New(runner, jobs.Options{Workers: 1})
	defer q.Drain(context.Background())
	spec, err := scenario.Parse([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := q.Submit(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, _ := q.Get(snap.ID)
		if s.State.Terminal() {
			if s.State != jobs.StateDone || s.CacheHit {
				t.Fatalf("state %q cacheHit=%v: %s", s.State, s.CacheHit, s.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, ok := q.Result(snap.ID)
	if !ok || len(res.TableText) == 0 {
		t.Fatalf("missing result: ok=%v %+v", ok, res)
	}
}
