package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tempriv/internal/clock"
)

func newManualClock() *clock.Manual {
	return clock.NewManual(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
}

func w(id, url string, cap int) Worker { return Worker{ID: id, URL: url, Capacity: cap} }

func TestRegisterHeartbeatEpochs(t *testing.T) {
	clk := newManualClock()
	r := New(Options{LeaseTTL: 10 * time.Second, Clock: clk})

	ttl, epoch, err := r.Register(w("w1", "http://localhost:7181", 4))
	if err != nil || ttl != 10*time.Second || epoch != 1 {
		t.Fatalf("first register: ttl=%v epoch=%d err=%v", ttl, epoch, err)
	}
	// A steady-state heartbeat renews the lease without bumping the epoch.
	clk.Advance(3 * time.Second)
	_, epoch, err = r.Register(w("w1", "http://localhost:7181", 4))
	if err != nil || epoch != 1 {
		t.Fatalf("heartbeat bumped epoch: epoch=%d err=%v", epoch, err)
	}
	alive, _ := r.Alive()
	if len(alive) != 1 || !alive[0].ExpiresAt.Equal(clk.Now().Add(10*time.Second)) {
		t.Fatalf("lease not renewed: %+v", alive)
	}
	// A new member bumps it.
	_, epoch, _ = r.Register(w("w2", "http://localhost:7182", 2))
	if epoch != 2 {
		t.Fatalf("new member epoch = %d, want 2", epoch)
	}
	// Same ID from a new address (restart elsewhere) bumps it.
	_, epoch, _ = r.Register(w("w1", "http://localhost:9999", 4))
	if epoch != 3 {
		t.Fatalf("address change epoch = %d, want 3", epoch)
	}
	if alive, _ := r.Alive(); len(alive) != 2 || alive[0].URL != "http://localhost:9999" {
		t.Fatalf("alive after address change: %+v", alive)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New(Options{})
	for _, bad := range []Worker{
		{ID: "", URL: "http://x"},
		{ID: "has space", URL: "http://x"},
		{ID: "ok", URL: ""},
		{ID: "ok", URL: "ftp://x"},
		{ID: "ok", URL: "http://"},
	} {
		if _, _, err := r.Register(bad); err == nil {
			t.Fatalf("registration %+v accepted, want error", bad)
		}
	}
	// Capacity is defaulted, not rejected.
	if _, _, err := r.Register(w("ok", "http://localhost:1", 0)); err != nil {
		t.Fatal(err)
	}
	alive, _ := r.Alive()
	if alive[0].Capacity != 1 {
		t.Fatalf("capacity not defaulted: %+v", alive[0])
	}
}

func TestLeaseExpirySweep(t *testing.T) {
	clk := newManualClock()
	r := New(Options{LeaseTTL: 5 * time.Second, Clock: clk})
	r.Register(w("w1", "http://localhost:7181", 1))
	r.Register(w("w2", "http://localhost:7182", 1))
	epochBefore := r.Epoch()

	// w2 keeps heartbeating, w1 goes silent.
	clk.Advance(3 * time.Second)
	r.Register(w("w2", "http://localhost:7182", 1))
	clk.Advance(3 * time.Second) // w1's lease (5s) is now 6s stale

	expired := r.Sweep()
	if len(expired) != 1 || expired[0].ID != "w1" {
		t.Fatalf("expired = %+v, want [w1]", expired)
	}
	if r.Epoch() != epochBefore+1 {
		t.Fatalf("epoch after expiry = %d, want %d", r.Epoch(), epochBefore+1)
	}
	alive, _ := r.Alive()
	if len(alive) != 1 || alive[0].ID != "w2" {
		t.Fatalf("alive after expiry: %+v", alive)
	}
	// Sweeping again finds nothing and keeps the epoch stable.
	if again := r.Sweep(); len(again) != 0 || r.Epoch() != epochBefore+1 {
		t.Fatalf("second sweep: %+v epoch=%d", again, r.Epoch())
	}
	// The expired worker can rejoin (restart with the same identity).
	if _, _, err := r.Register(w("w1", "http://localhost:7181", 1)); err != nil {
		t.Fatal(err)
	}
}

func TestDeregister(t *testing.T) {
	r := New(Options{})
	r.Register(w("w1", "http://localhost:7181", 1))
	if !r.Deregister("w1") {
		t.Fatal("deregister reported unknown worker")
	}
	if r.Deregister("w1") {
		t.Fatal("double deregister reported success")
	}
	if alive, _ := r.Alive(); len(alive) != 0 {
		t.Fatalf("alive after deregister: %+v", alive)
	}
}

// TestHTTPRegisterRoundTrip drives the mounted handler over real HTTP:
// register answers the lease TTL, the epoch and the full membership, and
// DELETE removes the record.
func TestHTTPRegisterRoundTrip(t *testing.T) {
	r := New(Options{LeaseTTL: 7 * time.Second})
	mux := http.NewServeMux()
	r.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	body, _ := json.Marshal(w("w1", "http://localhost:7181", 3))
	resp, err := http.Post(ts.URL+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.TTLMillis != 7000 || rr.Epoch != 1 || len(rr.Workers) != 1 || rr.Workers[0].ID != "w1" {
		t.Fatalf("register response: %+v", rr)
	}

	// Membership query sees the same state.
	resp, err = http.Get(ts.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	var listed RegisterResponse
	json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if len(listed.Workers) != 1 || listed.Workers[0].Capacity != 3 {
		t.Fatalf("workers response: %+v", listed)
	}

	// Invalid registrations answer the JSON error contract with a 400.
	resp, err = http.Post(ts.URL+"/v1/cluster/register", "application/json", bytes.NewReader([]byte(`{"id":"bad id"}`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid registration: HTTP %d", resp.StatusCode)
	}
	var errBody struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if errBody.Status != 400 || errBody.Error == "" {
		t.Fatalf("error body: %+v", errBody)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cluster/workers/w1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: HTTP %d", resp.StatusCode)
	}
	if alive, _ := r.Alive(); len(alive) != 0 {
		t.Fatalf("alive after HTTP deregister: %+v", alive)
	}
}

// TestClientHeartbeatLoop runs the worker-side lease client against a
// real registry server, both on one manual clock: it must register,
// heartbeat every TTL/3 so its lease never lapses, surface membership to
// OnMembers, and deregister on shutdown.
func TestClientHeartbeatLoop(t *testing.T) {
	const ttl = 30 * time.Second
	clk := newManualClock()
	r := New(Options{LeaseTTL: ttl, Clock: clk})
	mux := http.NewServeMux()
	r.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var beats atomic.Int64
	var lastMembers atomic.Value
	c, err := NewClient(ts.URL, w("w1", "http://localhost:7181", 2), ClientOptions{
		Clock:       clk,
		OnHeartbeat: func() { beats.Add(1) },
		OnMembers:   func(ws []Worker, _ uint64) { lastMembers.Store(len(ws)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { c.Run(ctx); close(done) }()

	// Each step waits until the client has armed its next heartbeat, then
	// moves the clock to it: over ten steps, three full lease lengths, the
	// worker beats once per step and never falls off the board.
	for step := 1; step <= 10; step++ {
		clk.BlockUntil(1)
		if got := beats.Load(); got != int64(step) {
			t.Fatalf("step %d: %d heartbeats, want %d", step, got, step)
		}
		if alive, _ := r.Alive(); len(alive) != 1 {
			t.Fatalf("step %d: worker fell off the board", step)
		}
		clk.Advance(ttl / 3)
	}
	clk.BlockUntil(1)
	if got, _ := lastMembers.Load().(int); got != 1 {
		t.Fatalf("OnMembers saw %d members, want 1", got)
	}

	cancel()
	<-done
	if alive, _ := r.Alive(); len(alive) != 0 {
		t.Fatalf("worker still on the board after shutdown deregister: %+v", alive)
	}
}

// TestClientRetriesThroughOutage: a dead registry makes the client retry
// every retryBackoff (surfacing errors), and a later revival re-registers
// without restart.
func TestClientRetriesThroughOutage(t *testing.T) {
	clk := newManualClock()
	r := New(Options{LeaseTTL: 30 * time.Second, Clock: clk})
	mux := http.NewServeMux()
	r.Mount(mux)
	var down atomic.Bool
	down.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if down.Load() {
			http.Error(w, "registry down", http.StatusBadGateway)
			return
		}
		mux.ServeHTTP(w, req)
	}))
	defer ts.Close()

	var errs atomic.Int64
	c, err := NewClient(ts.URL, w("w1", "http://localhost:7181", 1), ClientOptions{
		Clock:   clk,
		OnError: func(error) { errs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { c.Run(ctx); close(done) }()

	// Two failed attempts, retryBackoff apart, each surfaced.
	clk.BlockUntil(1)
	clk.Advance(retryBackoff)
	clk.BlockUntil(1)
	if got := errs.Load(); got != 2 {
		t.Fatalf("%d errors surfaced after two attempts, want 2", got)
	}
	// The registry revives while the client waits; its next retry lands.
	down.Store(false)
	clk.Advance(retryBackoff)
	clk.BlockUntil(1)
	if alive, _ := r.Alive(); len(alive) != 1 {
		t.Fatalf("client did not re-register after the outage: alive = %+v", alive)
	}
	cancel()
	<-done
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", w("w1", "http://x", 1), ClientOptions{}); err == nil {
		t.Fatal("empty registry URL accepted")
	}
	if _, err := NewClient("localhost:7171", w("w1", "http://x", 1), ClientOptions{}); err == nil {
		t.Fatal("schemeless registry URL accepted")
	}
	if _, err := NewClient("http://localhost:7171", w("bad id", "http://x", 1), ClientOptions{}); err == nil {
		t.Fatal("invalid worker ID accepted")
	}
}
