package server

// The worker side of crash handoff: POST /v1/peer/results accepts a ring
// predecessor's finished result, and the runner answers a job for that
// fingerprint from the replica — no engine run, byte-identical to the
// owner's own /result document. The gateway relies on exactly this when
// it re-dispatches a dead worker's jobs to the ring successor.

import (
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

	"tempriv/internal/cluster/peering"
	"tempriv/internal/jobs"
	"tempriv/internal/resultcache"
	"tempriv/internal/resultstream"
	"tempriv/internal/telemetry"
)

// peerServer is one cluster worker's API: a peer replica store shared by
// the server (which accepts replicas) and the runner (which answers from
// them).
type peerServer struct {
	ts    *httptest.Server
	q     *jobs.Queue
	store *peering.Store
	reg   *telemetry.Registry
}

func newPeerServer(t *testing.T, cache *resultcache.Cache, chunks *resultstream.Store) *peerServer {
	t.Helper()
	p := &peerServer{store: peering.NewStore(peering.StoreOptions{}), reg: telemetry.NewRegistry()}
	p.q = jobs.New(NewRunner(RunnerConfig{
		Cache: cache, Registry: p.reg, ReplicateWorkers: 1, Chunks: chunks, Peers: p.store,
	}), jobs.Options{Workers: 1})
	p.ts = httptest.NewServer(New(Config{
		Queue: p.q, Cache: cache, Chunks: chunks, Registry: p.reg, Peers: p.store,
	}))
	t.Cleanup(func() {
		p.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		p.q.Drain(ctx)
	})
	return p
}

func getMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// replicate posts the owner's finished result document to the peer the
// way the write-behind replicator does.
func replicate(t *testing.T, ownerResult []byte, peer *peerServer) {
	t.Helper()
	var res resultBody
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
		t.Fatalf("peer put: HTTP %d", resp.StatusCode)
	}
}

// TestPeerRoundTripByteIdentical replicates a real finished result into a
// second worker, then submits the same spec there: the job is answered
// from the replica with no engine run, reports cache_hit:false, and its
// /result is byte-identical to the owner's.
func TestPeerRoundTripByteIdentical(t *testing.T) {
	owner := newPeerServer(t, nil, nil)
	peer := newPeerServer(t, nil, nil)

	snap := submit(t, owner.ts, smallScenario)
	waitState(t, owner.q, snap.ID, jobs.StateDone)
	ownerResult := fetchResult(t, owner.ts, snap.ID)

	replicate(t, ownerResult, peer)
	if peer.store.Len() != 1 {
		t.Fatalf("peer store holds %d replicas, want 1", peer.store.Len())
	}

	handed := submit(t, peer.ts, smallScenario)
	if final := waitDone(t, peer.ts, handed.ID); final.State != jobs.StateDone || final.CacheHit {
		t.Fatalf("replica-served job ended %s with cache_hit=%v, want done and false", final.State, final.CacheHit)
	}
	if got := fetchResult(t, peer.ts, handed.ID); !bytes.Equal(got, ownerResult) {
		t.Fatalf("replica-served result differs from owner's:\nowner: %s\npeer:  %s", ownerResult, got)
	}

	metrics := getMetrics(t, peer.reg)
	for _, want := range []string{
		"temprivd_runs_total 0",
		"tempriv_cluster_peer_served_total 1",
		"tempriv_cluster_peer_received_total 1",
		"tempriv_cluster_peer_replicas_held 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("peer metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestReplicaTierFillsCacheAndDropsChunks: with a cache attached, a
// replica-served job is a cache miss that fills the cache (so the next
// submission hits) and removes the fingerprint's leftover chunks — the
// same tail as a computed result.
func TestReplicaTierFillsCacheAndDropsChunks(t *testing.T) {
	owner := newPeerServer(t, nil, nil)
	snap := submit(t, owner.ts, replicatedScenario)
	waitState(t, owner.q, snap.ID, jobs.StateDone)
	ownerResult := fetchResult(t, owner.ts, snap.ID)

	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chunks, err := resultstream.Open(dir, resultstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Leftovers of the dead owner's run in the shared chunk directory.
	fp := seedChunks(t, chunks, replicatedScenario, 0, 1)
	peer := newPeerServer(t, cache, chunks)
	replicate(t, ownerResult, peer)

	handed := submit(t, peer.ts, replicatedScenario)
	if final := waitDone(t, peer.ts, handed.ID); final.State != jobs.StateDone || final.CacheHit {
		t.Fatalf("replica-served job ended %s with cache_hit=%v, want done and false", final.State, final.CacheHit)
	}
	if got := fetchResult(t, peer.ts, handed.ID); !bytes.Equal(got, ownerResult) {
		t.Fatal("replica-served result differs from owner's")
	}
	if _, err := os.Stat(filepath.Join(dir, fp+".chunks.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("leftover chunks survive the replica-served cache fill: %v", err)
	}

	again := submit(t, peer.ts, replicatedScenario)
	if final := waitDone(t, peer.ts, again.ID); !final.CacheHit {
		t.Fatal("resubmission after a replica-served job missed the cache")
	}
	if got := fetchResult(t, peer.ts, again.ID); !bytes.Equal(got, ownerResult) {
		t.Fatal("cache-hit result differs from owner's")
	}
	for name, want := range map[string]uint64{
		"temprivd_runs_total":               0,
		"temprivd_cache_misses_total":       1,
		"temprivd_cache_hits_total":         1,
		"tempriv_cluster_peer_served_total": 1,
	} {
		if got := peer.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestPeerPutRejectsBadDocuments(t *testing.T) {
	p := newPeerServer(t, nil, nil)
	fp := strings.Repeat("ab", 32)
	for name, doc := range map[string]string{
		"not json":        "{",
		"incomplete":      `{"fingerprint":"` + fp + `","table_text":"t","complete":false}`,
		"bad fingerprint": `{"fingerprint":"zz","table_text":"t","complete":true}`,
		"empty replica":   `{"fingerprint":"` + fp + `","complete":true}`,
	} {
		resp, err := http.Post(p.ts.URL+"/v1/peer/results", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	if p.store.Len() != 0 {
		t.Fatalf("store accepted %d bad replicas", p.store.Len())
	}
}

// TestPeerEndpointsAbsentWithoutStore: a standalone worker (no Peers
// configured) does not expose the replication surface.
func TestPeerEndpointsAbsentWithoutStore(t *testing.T) {
	ts, _, _ := newTestServer(t, false)
	resp, err := http.Post(ts.URL+"/v1/peer/results", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST: HTTP %d, want 404", resp.StatusCode)
	}
}
