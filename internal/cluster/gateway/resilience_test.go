package gateway

// Resilience e2e: crash handoff answered from the successor's replica,
// health-based worker ejection with gateway-side load shedding, and the
// /events stream surviving a failover behind keepalives.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tempriv/internal/cluster/peering"
	"tempriv/internal/cluster/ring"
)

// seedOwnedBy finds a spec document the two-member ring places on owner.
func seedOwnedBy(t *testing.T, owner string, members []string) (string, string) {
	t.Helper()
	rg := ring.New(members)
	for seed := 1; seed <= 200; seed++ {
		doc := specDoc(seed)
		fp := fingerprintOf(t, doc)
		if got, _ := rg.Owner(fp); got == owner {
			return doc, fp
		}
	}
	t.Fatalf("no seed in 1..200 maps to %s", owner)
	return "", ""
}

// replicateResult copies a finished result from its owner into a peer's
// replica store the way the worker-side write-behind replicator does.
func replicateResult(t *testing.T, ownerResult []byte, peer *worker) {
	t.Helper()
	var res struct {
		Fingerprint string          `json:"fingerprint"`
		TableText   string          `json:"table_text"`
		TableCSV    string          `json:"table_csv"`
		Manifest    json.RawMessage `json:"manifest"`
	}
	if err := json.Unmarshal(ownerResult, &res); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(peering.Document{
		Fingerprint: res.Fingerprint,
		TableText:   res.TableText,
		TableCSV:    res.TableCSV,
		Manifest:    res.Manifest,
		Complete:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(peer.ts.URL+"/v1/peer/results", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replicating to %s: HTTP %d", peer.id, resp.StatusCode)
	}
}

func gatewayMetrics(t *testing.T, c *cluster) string {
	t.Helper()
	_, body := getBody(t, c.ts.URL+"/metrics")
	return string(body)
}

// assertReplicaServed checks that a handed-off job finished on the
// successor without an engine run: answered from the replica.
func assertReplicaServed(t *testing.T, status map[string]any, successor *worker) {
	t.Helper()
	if got := stringField(status, "worker"); got != successor.id {
		t.Fatalf("handed-off job finished on %s, want %s", got, successor.id)
	}
	if h, _ := status["handoffs"].(float64); h != 1 {
		t.Fatalf("snapshot handoffs = %v, want 1", status["handoffs"])
	}
	if status["cache_hit"] == true {
		t.Fatal("replica-served job reports cache_hit:true")
	}
	if got := successor.reg.Counter("temprivd_runs_total").Value(); got != 0 {
		t.Fatalf("successor ran the engine %d times, want 0 (replica should answer)", got)
	}
	if got := successor.reg.Counter("tempriv_cluster_peer_served_total").Value(); got != 1 {
		t.Fatalf("successor peer_served_total = %d, want 1", got)
	}
}

// TestHandoffServedFromReplica: the owner finishes a job, replicates the
// result to its ring successor, and dies. The reconcile loop re-dispatches
// the route to that successor, whose runner answers from the replica —
// byte-identical result, zero recompute.
func TestHandoffServedFromReplica(t *testing.T) {
	ttl := time.Minute
	c := newCluster(t, ttl)
	wa := newWorker(t, "wa", "")
	wb := newWorker(t, "wb", "")
	c.register(t, "wa", wa.ts.URL)
	c.register(t, "wb", wb.ts.URL)

	doc, _ := seedOwnedBy(t, "wa", []string{"wa", "wb"})
	snap, _ := gwSubmit(t, c, doc, nil)
	id := stringField(snap, "id")
	if got := stringField(snap, "worker"); got != "wa" {
		t.Fatalf("job placed on %s, want wa", got)
	}
	gwWait(t, c, id)
	_, origResult := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")

	replicateResult(t, origResult, wb)

	// The owner dies; its lease expires (wb keeps heartbeating).
	wa.ts.Close()
	c.clk.Advance(2 * ttl)
	c.register(t, "wb", wb.ts.URL) // heartbeat
	if handed := c.gw.ReconcileOnce(context.Background()); handed != 1 {
		t.Fatalf("ReconcileOnce handed off %d routes, want 1", handed)
	}

	assertReplicaServed(t, gwWait(t, c, id), wb)
	code, body := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result after handoff: HTTP %d: %s", code, body)
	}
	if !bytes.Equal(body, origResult) {
		t.Fatal("replica-served result differs from the original bytes")
	}
	if !strings.Contains(gatewayMetrics(t, c), "tempriv_cluster_handoffs_total 1") {
		t.Fatal("gateway did not count the handoff")
	}

	// The merged listing still includes the handed-off job.
	_, gwList := getBody(t, c.ts.URL+"/v1/jobs?state=done")
	if !strings.Contains(string(gwList), `"`+id+`"`) {
		t.Fatalf("gateway listing dropped handed-off job:\n%s", gwList)
	}
}

// TestEjectionAndShed: a worker the gateway cannot reach accumulates
// failures, gets ejected, and subsequent submissions are shed at the
// gateway with 503 + Retry-After before any worker round-trip.
func TestEjectionAndShed(t *testing.T) {
	c := newCluster(t, time.Minute)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // registered but unreachable: every request refuses
	c.register(t, "w1", dead.URL)

	// ejectMinSamples failed dispatches cross the ejection bar (error
	// rate 1.0 over the fewest samples an ejection may rest on).
	for i := 1; i <= ejectMinSamples; i++ {
		resp, err := http.Post(c.ts.URL+"/v1/jobs", "application/json", strings.NewReader(specDoc(i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("submit %d: HTTP %d, want 502 while w1 is still trusted", i, resp.StatusCode)
		}
	}

	// Now the gateway knows better than to try: shed with Retry-After.
	resp, err := http.Post(c.ts.URL+"/v1/jobs", "application/json", strings.NewReader(specDoc(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-ejection submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	metrics := gatewayMetrics(t, c)
	if !strings.Contains(metrics, "tempriv_cluster_ejections_total 1") {
		t.Fatalf("metrics missing ejection:\n%s", metrics)
	}
	if !strings.Contains(metrics, "tempriv_sheds_total 1") {
		t.Fatalf("metrics missing gateway shed:\n%s", metrics)
	}
	if !strings.Contains(metrics, "tempriv_cluster_ejected_workers 1") {
		t.Fatalf("metrics missing ejected gauge:\n%s", metrics)
	}

	// The cluster document exposes the health view.
	_, body := getBody(t, c.ts.URL+"/v1/cluster")
	var view struct {
		Health map[string]struct {
			State string `json:"state"`
		} `json:"health"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Health["w1"].State != "ejected" {
		t.Fatalf("cluster health = %v, want w1 ejected", view.Health)
	}
}

// TestEjectedWorkerRoutesHandOff: under an asymmetric partition the
// worker's lease never expires (its heartbeats still arrive), but once
// it has stayed ejected for the grace window, ejectHandoffCooldowns eject
// cooldowns, the reconcile loop rehomes its routes anyway.
func TestEjectedWorkerRoutesHandOff(t *testing.T) {
	c := newCluster(t, time.Hour)
	wa := newWorker(t, "wa", "")
	wb := newWorker(t, "wb", "")
	c.register(t, "wa", wa.ts.URL)
	c.register(t, "wb", wb.ts.URL)

	doc, _ := seedOwnedBy(t, "wa", []string{"wa", "wb"})
	snap, _ := gwSubmit(t, c, doc, nil)
	id := stringField(snap, "id")
	gwWait(t, c, id)
	_, origResult := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	replicateResult(t, origResult, wb)

	// Partition: the gateway's requests to wa start failing, while wa's
	// lease (manual clock, 1h TTL) stays alive the whole time.
	wa.ts.Close()
	for i := 0; i < ejectMinSamples; i++ {
		c.gw.health.observe("wa", true)
	}
	if _, down := c.gw.health.ejectedSince("wa"); !down {
		t.Fatal("wa not ejected")
	}

	// Inside the grace window nothing moves.
	grace := ejectHandoffCooldowns * c.gw.health.cooldown
	for _, step := range []time.Duration{0, grace - time.Nanosecond} {
		c.clk.Advance(step)
		if handed := c.gw.ReconcileOnce(context.Background()); handed != 0 {
			t.Fatalf("route moved after %d handoffs inside grace window", handed)
		}
	}

	c.clk.Advance(time.Nanosecond)
	if handed := c.gw.ReconcileOnce(context.Background()); handed != 1 {
		t.Fatalf("ReconcileOnce handed off %d routes, want 1", handed)
	}
	assertReplicaServed(t, gwWait(t, c, id), wb)
	code, body := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK || !bytes.Equal(body, origResult) {
		t.Fatalf("result after ejection handoff: HTTP %d, identical=%v", code, bytes.Equal(body, origResult))
	}
}

// TestSaturationShed: a worker already carrying Capacity×ShedFactor
// outstanding routes stops receiving dispatches; with no other candidate
// the gateway sheds instead of queueing blind.
func TestSaturationShed(t *testing.T) {
	c := newClusterWith(t, time.Minute, func(cfg *Config) {
		cfg.ShedFactor = 1 // limit = advertised capacity (2 in register)
	})
	var n atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"wj-%d","state":"queued"}`, n.Add(1))
			return
		}
		fmt.Fprint(w, `{"jobs":[]}`)
	}))
	defer fake.Close()
	c.register(t, "w1", fake.URL) // Capacity 2

	for seed := 1; seed <= 2; seed++ {
		gwSubmit(t, c, specDoc(seed), nil)
	}
	resp, err := http.Post(c.ts.URL+"/v1/jobs", "application/json", strings.NewReader(specDoc(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturation shed missing Retry-After")
	}
	if !strings.Contains(gatewayMetrics(t, c), "tempriv_sheds_total 1") {
		t.Fatal("saturation shed not counted")
	}
}

// TestEventsKeepaliveAcrossFailover: a watcher attached to /events rides
// out a worker death — a keepalive line every eventKeepalive while the
// reconcile loop works, then the handoff note, then the successor's
// replica-served history to its end. The test steps the manual clock
// through each keepalive; nothing waits on the wall for them.
func TestEventsKeepaliveAcrossFailover(t *testing.T) {
	ttl := 20 * time.Second // runs out well inside failoverWait
	c := newCluster(t, ttl)
	wa := newWorker(t, "wa", "")
	wb := newWorker(t, "wb", "")
	c.register(t, "wa", wa.ts.URL)
	c.register(t, "wb", wb.ts.URL)

	doc, _ := seedOwnedBy(t, "wa", []string{"wa", "wb"})
	snap, _ := gwSubmit(t, c, doc, nil)
	id := stringField(snap, "id")
	gwWait(t, c, id)
	_, origResult := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result")
	replicateResult(t, origResult, wb)
	wa.ts.Close()

	// Attach the watcher while the route still points at the dead owner.
	// The proxy sends its headers with its first line, so the watcher
	// reads on a goroutine of its own while this one steps the clock.
	lines := make(chan string)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		defer close(lines)
		resp, err := http.Get(c.ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("events: HTTP %d", resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-stop:
				return
			}
		}
		if err := sc.Err(); err != nil {
			t.Errorf("reading events: %v", err)
		}
	}()
	next := func() (string, bool) {
		t.Helper()
		select {
		case line, ok := <-lines:
			return line, ok
		case <-time.After(10 * time.Second):
			t.Fatal("events stream stalled")
			return "", false
		}
	}
	keepalive := func(when string) {
		t.Helper()
		if line, ok := next(); !ok || !strings.Contains(line, `"keepalive":true`) {
			t.Fatalf("%s: got line %q (open %v), want a keepalive", when, line, ok)
		}
	}

	// The proxy found the owner dead and waits out the failover: one
	// keepalive per step.
	c.clk.BlockUntil(1)
	for i := 1; i <= 2; i++ {
		c.clk.Advance(eventKeepalive)
		keepalive(fmt.Sprintf("step %d", i))
		c.clk.BlockUntil(1)
	}

	// wa's lease, granted at the start, runs out; wb heartbeats, and the
	// reconcile loop rehomes the route while the proxy is still waiting.
	c.clk.Advance(ttl)
	keepalive("lease expiry")
	c.clk.BlockUntil(1)
	c.register(t, "wb", wb.ts.URL)
	if handed := c.gw.ReconcileOnce(context.Background()); handed != 1 {
		t.Fatalf("ReconcileOnce handed off %d routes, want 1", handed)
	}

	// The next keepalive step finds the new home: the handoff note, then
	// wb's history to the end of the stream.
	c.clk.Advance(eventKeepalive)
	keepalive("after handoff")
	var notes []string
	for {
		line, ok := next()
		if !ok {
			break
		}
		var ev struct {
			Seq     int    `json:"seq"`
			Message string `json:"message"`
		}
		if json.Unmarshal([]byte(line), &ev) == nil && ev.Seq == -1 {
			notes = append(notes, ev.Message)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "re-dispatched to wb") {
		t.Fatalf("handoff notes in stream = %q, want one naming wb", notes)
	}
	assertReplicaServed(t, gwWait(t, c, id), wb)
}

// TestEventsFollowersFreeOutstanding: a client that follows /events to
// the end and then reads /result — never polling status — must not leave
// its finished jobs counted as outstanding, or later submissions to a
// worker at its shed limit are refused.
func TestEventsFollowersFreeOutstanding(t *testing.T) {
	c := newClusterWith(t, time.Minute, func(cfg *Config) {
		cfg.ShedFactor = 1 // limit = advertised capacity (2 in register)
	})
	w := newWorker(t, "w1", "")
	c.register(t, "w1", w.ts.URL)

	for seed := 1; seed <= 3; seed++ {
		resp, err := http.Post(c.ts.URL+"/v1/jobs", "application/json", strings.NewReader(specDoc(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: submit HTTP %d (%v), want 202", seed, resp.StatusCode, snap["error"])
		}
		id := stringField(snap, "id")
		if code, events := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/events"); code != http.StatusOK || !strings.Contains(string(events), `"state":"done"`) {
			t.Fatalf("round %d: events HTTP %d without a done event:\n%s", seed, code, events)
		}
		if code, body := getBody(t, c.ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusOK {
			t.Fatalf("round %d: result HTTP %d: %s", seed, code, body)
		}
	}
}
