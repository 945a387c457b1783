package gateway

// In-process cluster e2e: real temprivd API servers behind a real
// gateway, with the registry and the gateway on one manual clock so lease
// expiry, Retry-After windows and the /events failover wait run
// deterministic.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tempriv/internal/clock"
	"tempriv/internal/cluster/peering"
	"tempriv/internal/cluster/registry"
	"tempriv/internal/cluster/ring"
	"tempriv/internal/jobs"
	"tempriv/internal/obs"
	"tempriv/internal/resultstream"
	"tempriv/internal/scenario"
	"tempriv/internal/server"
	"tempriv/internal/telemetry"
)

func specDoc(seed int) string {
	return fmt.Sprintf(`{"version":1,"experiment":{"id":"fig2a","packets":20,"interarrivals":[4],"replicates":4,"seed":%d}}`, seed)
}

func fingerprintOf(t *testing.T, doc string) string {
	t.Helper()
	spec, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func newManualClock() *clock.Manual { return clock.NewManual(time.Unix(1_700_000_000, 0)) }

// worker is one in-process temprivd API instance.
type worker struct {
	id    string
	ts    *httptest.Server
	q     *jobs.Queue
	reg   *telemetry.Registry
	peers *peering.Store
}

func (w *worker) close(t *testing.T) {
	t.Helper()
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.q.Drain(ctx)
}

// newWorker builds a real worker. chunksDir, when non-empty, is the
// shared replicate-chunk directory (the crash-handoff resume substrate).
func newWorker(t *testing.T, id, chunksDir string) *worker {
	t.Helper()
	reg := telemetry.NewRegistry()
	var chunks *resultstream.Store
	if chunksDir != "" {
		var err error
		chunks, err = resultstream.Open(chunksDir, resultstream.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	peers := peering.NewStore(peering.StoreOptions{})
	runner := server.NewRunner(server.RunnerConfig{
		Registry: reg, ReplicateWorkers: 1, Chunks: chunks, Peers: peers,
	})
	q := jobs.New(runner, jobs.Options{Workers: 2})
	api := server.New(server.Config{
		Queue: q, Chunks: chunks, Registry: reg,
		Tracer: obs.New(obs.Options{}), ClusterID: id, Peers: peers,
	})
	w := &worker{id: id, ts: httptest.NewServer(api), q: q, reg: reg, peers: peers}
	t.Cleanup(func() { w.close(t) })
	return w
}

// cluster bundles a gateway with its registry and instrumentation.
type cluster struct {
	gw  *Gateway
	ts  *httptest.Server
	reg *registry.Registry
	tel *telemetry.Registry
	clk *clock.Manual
}

func newCluster(t *testing.T, ttl time.Duration) *cluster {
	return newClusterWith(t, ttl, nil)
}

// newClusterWith builds the gateway with an optional Config mutation so
// resilience tests can pin cooldowns, shed factors, and stream timings.
func newClusterWith(t *testing.T, ttl time.Duration, mut func(*Config)) *cluster {
	t.Helper()
	c := &cluster{clk: newManualClock(), tel: telemetry.NewRegistry()}
	c.reg = registry.New(registry.Options{LeaseTTL: ttl, Clock: c.clk})
	cfg := Config{
		Registry:  c.reg,
		Telemetry: c.tel,
		Tracer:    obs.New(obs.Options{}),
		Clock:     c.clk,
	}
	if mut != nil {
		mut(&cfg)
	}
	c.gw = New(cfg)
	c.ts = httptest.NewServer(c.gw)
	t.Cleanup(c.ts.Close)
	return c
}

func (c *cluster) register(t *testing.T, id, url string) {
	t.Helper()
	if _, _, err := c.reg.Register(registry.Worker{ID: id, URL: url, Capacity: 2}); err != nil {
		t.Fatal(err)
	}
}

// gwSubmit posts a spec through the gateway and decodes the snapshot.
func gwSubmit(t *testing.T, c *cluster, doc string, hdr map[string]string) (map[string]any, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.ts.URL+"/v1/jobs", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("gateway submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap, resp
}

// gwWait polls the gateway until the job reaches a terminal state.
func gwWait(t *testing.T, c *cluster, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch stringField(snap, "state") {
		case "done":
			return snap
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %v", id, snap["state"], snap["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
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

// TestClusterFanOut: jobs land on their ring owner, results served
// through the gateway are byte-identical to a standalone worker's, and
// the merged listing (with ?state= pushdown) covers every job.
func TestClusterFanOut(t *testing.T) {
	c := newCluster(t, time.Minute)
	workers := map[string]*worker{}
	for _, id := range []string{"w1", "w2", "w3"} {
		w := newWorker(t, id, "")
		workers[id] = w
		c.register(t, id, w.ts.URL)
	}
	rg := ring.New([]string{"w1", "w2", "w3"})

	standalone := newWorker(t, "solo", "")

	ids := make([]string, 0, 4)
	for seed := 1; seed <= 4; seed++ {
		doc := specDoc(seed)
		fp := fingerprintOf(t, doc)
		snap, _ := gwSubmit(t, c, doc, nil)
		id := stringField(snap, "id")
		ids = append(ids, id)
		owner, _ := rg.Owner(fp)
		if got := stringField(snap, "worker"); got != owner {
			t.Fatalf("seed %d placed on %s, ring owner is %s", seed, got, owner)
		}
		gwWait(t, c, id)

		// Byte-identical to a standalone run of the same spec.
		soloResp, err := http.Post(standalone.ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var soloSnap map[string]any
		if err := json.NewDecoder(soloResp.Body).Decode(&soloSnap); err != nil {
			t.Fatal(err)
		}
		soloResp.Body.Close()
		waitWorkerDone(t, standalone, stringField(soloSnap, "id"))
		_, soloBody := getBody(t, standalone.ts.URL+"/v1/jobs/"+stringField(soloSnap, "id")+"/result")
		status, gwBody := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
		if status != http.StatusOK {
			t.Fatalf("gateway result: HTTP %d: %s", status, gwBody)
		}
		if string(gwBody) != string(soloBody) {
			t.Fatalf("seed %d: gateway result differs from standalone\ngateway: %s\nsolo: %s", seed, gwBody, soloBody)
		}
	}

	// Merged listing covers all jobs; the terminal pushdown matches.
	for _, q := range []string{"", "?state=done", "?state=done,failed,canceled"} {
		status, body := getBody(t, c.ts.URL+"/v1/jobs"+q)
		if status != http.StatusOK {
			t.Fatalf("list%s: HTTP %d", q, status)
		}
		var list struct {
			Jobs []map[string]any `json:"jobs"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) != len(ids) {
			t.Fatalf("list%s returned %d jobs, want %d", q, len(list.Jobs), len(ids))
		}
	}
	if status, _ := getBody(t, c.ts.URL+"/v1/jobs?state=nope"); status != http.StatusBadRequest {
		t.Fatalf("bad state filter: HTTP %d, want 400", status)
	}

	// /v1/cluster reflects the fleet.
	status, body := getBody(t, c.ts.URL+"/v1/cluster")
	var view clusterView
	if err := json.Unmarshal(body, &view); err != nil || status != http.StatusOK {
		t.Fatalf("cluster view: HTTP %d err %v", status, err)
	}
	if len(view.Workers) != 3 || view.Jobs != 4 {
		t.Fatalf("cluster view = %+v", view)
	}
}

func waitWorkerDone(t *testing.T, w *worker, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := w.q.Get(id); ok && snap.State == jobs.StateDone {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker job %s never finished", id)
}

// TestClusterTracePropagation: the gateway forwards the client's
// X-Trace-Id on the worker POST and the worker adopts it instead of
// minting its own — one trace ID names the job end to end.
func TestClusterTracePropagation(t *testing.T) {
	c := newCluster(t, time.Minute)
	w := newWorker(t, "w1", "")
	c.register(t, "w1", w.ts.URL)

	const traceID = "e2e-trace-000001"
	snap, resp := gwSubmit(t, c, specDoc(1), map[string]string{"X-Trace-Id": traceID})
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("gateway echoed X-Trace-Id %q, want %q", got, traceID)
	}
	gwWait(t, c, stringField(snap, "id"))

	// The worker's flight recorder has the job under the same trace ID.
	workerJob := stringField(snap, "worker_job")
	status, body := getBody(t, w.ts.URL+"/v1/traces/"+workerJob)
	if status != http.StatusOK {
		t.Fatalf("worker trace: HTTP %d: %s", status, body)
	}
	var tree struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	if tree.TraceID != traceID {
		t.Fatalf("worker adopted trace %q, want %q (reminted instead of adopting)", tree.TraceID, traceID)
	}
}

// failOverFromShedOwner registers a ring owner wa that answers every
// POST with status and the given Retry-After, and a successor wb that
// accepts. It submits one job owned by wa and checks that dispatch gave
// the owner one POST and no wait, and placed the job on the successor.
func failOverFromShedOwner(t *testing.T, c *cluster, status int, retryAfter string) {
	t.Helper()
	doc, _ := seedOwnedBy(t, "wa", []string{"wa", "wb"})

	var ownerPosts, successorPosts atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			ownerPosts.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"shedding load","status":%d}`, status)
			return
		}
		fmt.Fprint(w, `{"jobs":[]}`)
	}))
	t.Cleanup(owner.Close)
	successor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			successorPosts.Add(1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"wjob-1","state":"queued"}`)
			return
		}
		fmt.Fprint(w, `{"jobs":[]}`)
	}))
	t.Cleanup(successor.Close)
	c.register(t, "wa", owner.URL)
	c.register(t, "wb", successor.URL)

	snap, _ := gwSubmit(t, c, doc, nil)
	if got := stringField(snap, "worker"); got != "wb" || stringField(snap, "worker_job") != "wjob-1" {
		t.Fatalf("job placed on %q (%+v), want the successor wb", got, snap)
	}
	if o, s := ownerPosts.Load(), successorPosts.Load(); o != 1 || s != 1 {
		t.Fatalf("POSTs: owner %d, successor %d; want one each", o, s)
	}
	if got := c.tel.Counter("tempriv_cluster_dispatch_failover_total").Value(); got != 1 {
		t.Fatalf("dispatch_failover_total = %d, want 1", got)
	}
}

// checkBackpressureWindow checks on the manual clock that worker id stays
// backpressured for exactly d from now.
func checkBackpressureWindow(t *testing.T, c *cluster, id string, d time.Duration) {
	t.Helper()
	c.clk.Advance(d - time.Millisecond)
	if _, busy := c.gw.health.backpressured(id); !busy {
		t.Fatalf("%s left its backpressure window before %v", id, d)
	}
	c.clk.Advance(time.Millisecond)
	if remain, busy := c.gw.health.backpressured(id); busy {
		t.Fatalf("%s still backpressured %v past %v", id, remain, d)
	}
}

// TestGatewayHonorsRetryAfter: a ring owner shedding load with 503 +
// Retry-After gets one POST and no wait; the job lands on the successor
// at once, and the owner is passed by for exactly the Retry-After it
// asked for.
func TestGatewayHonorsRetryAfter(t *testing.T) {
	c := newCluster(t, time.Minute)
	failOverFromShedOwner(t, c, http.StatusServiceUnavailable, "3")
	checkBackpressureWindow(t, c, "wa", 3*time.Second)
}

// TestGatewayRetryAfterCapped: an abusive Retry-After on a 429 is clamped
// to RetryAfterMax (default 5s), so the backpressure window it opens does
// not shut the owner out for minutes.
func TestGatewayRetryAfterCapped(t *testing.T) {
	c := newCluster(t, time.Minute)
	failOverFromShedOwner(t, c, http.StatusTooManyRequests, "600")
	checkBackpressureWindow(t, c, "wa", 5*time.Second)
}

// TestClusterCrashHandoff is the tentpole e2e: a worker dies mid-job,
// the reconcile loop re-dispatches to the ring successor, and — because
// the fleet shares the chunk directory — the successor resumes from the
// dead worker's persisted replicates instead of recomputing them.
func TestClusterCrashHandoff(t *testing.T) {
	chunksDir := t.TempDir()

	// Pick a spec the ring {wa, wb} places on wa (the worker that dies).
	var doc, fp string
	rg := ring.New([]string{"wa", "wb"})
	for seed := 1; ; seed++ {
		doc = specDoc(seed)
		fp = fingerprintOf(t, doc)
		if owner, _ := rg.Owner(fp); owner == "wa" {
			break
		}
		if seed > 100 {
			t.Fatal("no seed maps to wa")
		}
	}

	// Seed the shared chunk store with the replicates "wa" would have
	// persisted before dying: run the same spec on a throwaway worker
	// that shares the chunk directory (no result cache, so the chunks
	// survive the run).
	seeder := newWorker(t, "seeder", chunksDir)
	resp, err := http.Post(seeder.ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var seedSnap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&seedSnap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitWorkerDone(t, seeder, stringField(seedSnap, "id"))
	_, wantResult := getBody(t, seeder.ts.URL+"/v1/jobs/"+stringField(seedSnap, "id")+"/result")

	// "wa" accepts the job and then wedges: it answers like a worker
	// whose process froze — submissions park forever in "running".
	wa := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if r.Header.Get("X-Trace-Id") == "" {
				t.Error("worker POST missing X-Trace-Id")
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"wa-job-1","state":"queued","fingerprint":%q}`, fp)
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs":
			fmt.Fprint(w, `{"jobs":[]}`)
		default:
			fmt.Fprintf(w, `{"id":"wa-job-1","state":"running","fingerprint":%q}`, fp)
		}
	}))
	defer wa.Close()

	wb := newWorker(t, "wb", chunksDir)

	ttl := 10 * time.Second
	c := newCluster(t, ttl)
	c.register(t, "wa", wa.URL)
	c.register(t, "wb", wb.ts.URL)

	const traceID = "handoff-trace-0001"
	snap, _ := gwSubmit(t, c, doc, map[string]string{"X-Trace-Id": traceID})
	id := stringField(snap, "id")
	if got := stringField(snap, "worker"); got != "wa" {
		t.Fatalf("job placed on %s, want wa", got)
	}

	// No handoff while wa's lease is alive.
	if n := c.gw.ReconcileOnce(context.Background()); n != 0 {
		t.Fatalf("reconcile handed off %d jobs with all leases live", n)
	}

	// wa goes silent; wb keeps heartbeating. Past the TTL, one reconcile
	// pass must move the job.
	c.clk.Advance(ttl + time.Second)
	c.register(t, "wb", wb.ts.URL) // heartbeat
	if n := c.gw.ReconcileOnce(context.Background()); n != 1 {
		t.Fatalf("reconcile handed off %d jobs, want 1", n)
	}
	if got := c.tel.Counter("tempriv_cluster_handoffs_total").Value(); got != 1 {
		t.Fatalf("handoffs_total = %d, want 1", got)
	}

	final := gwWait(t, c, id)
	if got := stringField(final, "worker"); got != "wb" {
		t.Fatalf("job finished on %s, want wb", got)
	}
	if h, _ := final["handoffs"].(float64); h != 1 {
		t.Fatalf("snapshot handoffs = %v, want 1", final["handoffs"])
	}
	if got := stringField(final, "origin"); got != string(jobs.OriginHandoff) {
		t.Fatalf("snapshot origin = %q, want handoff", got)
	}

	// The successor resumed from the shared chunks: every replicate was
	// served from disk, none recomputed.
	if got := wb.reg.Counter("tempriv_replicates_skipped_on_resume_total").Value(); got == 0 {
		t.Fatal("successor recomputed all replicates; expected chunk resume")
	}

	// And the result is byte-identical to an uninterrupted run.
	status, gotResult := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("result after handoff: HTTP %d: %s", status, gotResult)
	}
	if string(gotResult) != string(wantResult) {
		t.Fatalf("handoff result differs from uninterrupted run\ngot: %s\nwant: %s", gotResult, wantResult)
	}

	// The event stream narrates the handoff: a synthetic seq -1 line
	// precedes the successor's own history.
	status, events := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/events")
	if status != http.StatusOK {
		t.Fatalf("events: HTTP %d", status)
	}
	firstLine := strings.SplitN(string(events), "\n", 2)[0]
	var ev jobs.Event
	if err := json.Unmarshal([]byte(firstLine), &ev); err != nil {
		t.Fatalf("first event line %q: %v", firstLine, err)
	}
	if ev.Seq != -1 || ev.Stage != "handoff" || !strings.Contains(ev.Message, "wa") || !strings.Contains(ev.Message, "wb") {
		t.Fatalf("first event = %+v, want synthetic handoff note", ev)
	}
}

// TestClusterDeadWorkerResultRevived: a job that FINISHED on a worker
// that later dies is re-dispatched too — its result bytes lived only in
// the dead worker's cache, and determinism plus the shared chunk
// directory make the successor's revival cheap and byte-identical.
func TestClusterDeadWorkerResultRevived(t *testing.T) {
	chunksDir := t.TempDir()
	rg := ring.New([]string{"wa", "wb"})
	var doc string
	for seed := 1; ; seed++ {
		doc = specDoc(seed)
		if owner, _ := rg.Owner(fingerprintOf(t, doc)); owner == "wa" {
			break
		}
		if seed > 100 {
			t.Fatal("no seed maps to wa")
		}
	}

	wa := newWorker(t, "wa", chunksDir)
	wb := newWorker(t, "wb", chunksDir)
	ttl := 10 * time.Second
	c := newCluster(t, ttl)
	c.register(t, "wa", wa.ts.URL)
	c.register(t, "wb", wb.ts.URL)

	snap, _ := gwSubmit(t, c, doc, nil)
	id := stringField(snap, "id")
	if got := stringField(snap, "worker"); got != "wa" {
		t.Fatalf("job placed on %s, want wa", got)
	}
	gwWait(t, c, id)
	status, before := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("result before crash: HTTP %d", status)
	}

	// wa dies after finishing the job; the reconcile pass revives it.
	wa.ts.Close()
	c.clk.Advance(ttl + time.Second)
	c.register(t, "wb", wb.ts.URL) // heartbeat
	if n := c.gw.ReconcileOnce(context.Background()); n != 1 {
		t.Fatalf("reconcile revived %d jobs, want 1", n)
	}
	final := gwWait(t, c, id)
	if got := stringField(final, "worker"); got != "wb" {
		t.Fatalf("revived on %s, want wb", got)
	}
	status, after := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("result after revival: HTTP %d", status)
	}
	if string(before) != string(after) {
		t.Fatalf("revived result differs\nbefore: %s\nafter: %s", before, after)
	}
	if got := wb.reg.Counter("tempriv_replicates_skipped_on_resume_total").Value(); got == 0 {
		t.Fatal("revival recomputed all replicates; expected chunk resume")
	}
}

// TestGatewayNoWorkers: submissions are refused cleanly (503 +
// Retry-After) when the fleet is empty, and /readyz agrees.
func TestGatewayNoWorkers(t *testing.T) {
	c := newCluster(t, time.Minute)
	resp, err := http.Post(c.ts.URL+"/v1/jobs", "application/json", strings.NewReader(specDoc(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no workers: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if status, _ := getBody(t, c.ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with no workers: HTTP %d, want 503", status)
	}
}

// TestRunReconcilesOnTheClock: the Run loop sweeps once every
// ReconcileEvery of the gateway's clock — here the sweep expires a lapsed
// lease — and returns when its context ends.
func TestRunReconcilesOnTheClock(t *testing.T) {
	c := newCluster(t, time.Second)
	c.register(t, "w1", "http://127.0.0.1:1")
	epoch := c.reg.Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { c.gw.Run(ctx); close(done) }()

	for round := 1; round <= 3; round++ {
		c.clk.BlockUntil(1) // the loop waits for its next sweep
		c.clk.Advance(c.gw.reconcileEvery)
	}
	c.clk.BlockUntil(1)
	// Only the first sweep found a change: w1's 1s lease had lapsed.
	if got := c.reg.Epoch(); got != epoch+1 {
		t.Fatalf("epoch %d after three sweeps, want %d", got, epoch+1)
	}
	if got := c.tel.Gauge("tempriv_cluster_workers").Value(); got != 0 {
		t.Fatalf("tempriv_cluster_workers = %v after the sweep, want 0", got)
	}
	cancel()
	<-done
}
