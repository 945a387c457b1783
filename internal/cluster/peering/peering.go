// Package peering replicates finished result bytes between cluster
// workers so a crash handoff can answer the completed job from the ring
// successor's replica instead of recomputing it from chunks.
//
// Two halves:
//
//   - Store: a bounded in-memory replica store each worker keeps for its
//     ring predecessors. The server fills it from POST /v1/peer/results,
//     and the worker's job runner reads it: when the gateway re-dispatches
//     a dead worker's job to its ring successor, the runner answers from
//     the replica after a cache miss and before touching chunks or the
//     engine. Replicas are a durability *bonus* on top of the shared
//     chunk directory — losing one only costs a resume-from-chunks — so
//     memory-bounded LRU is the right shape: no disk, no fsync, evict
//     the coldest when full.
//
//   - Replicator: the write-behind sender. Job completion enqueues the
//     result (never blocking the worker goroutine); a background loop
//     resolves the fingerprint's ring successor from the latest
//     membership snapshot and POSTs the replica, retrying with backoff —
//     re-resolving the successor each attempt, so membership churn
//     mid-retry re-targets instead of failing.
package peering

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"tempriv/internal/cluster/registry"
	"tempriv/internal/cluster/ring"
	"tempriv/internal/telemetry"
)

// fingerprintRE matches the 64-hex-char seed-inclusive spec fingerprint
// every result document is addressed by.
var fingerprintRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// errNoSuccessor marks a replication attempt that found no peer on the
// ring — the single-worker steady state, not a delivery failure.
var errNoSuccessor = errors.New("peering: no eligible successor")

// Replica is one finished result staged for peer serving. The byte
// fields are exactly the worker's result-document fields; serving a
// replica re-renders the same document, so the bytes a client sees are
// identical whichever worker answers.
type Replica struct {
	Fingerprint string
	TableText   []byte
	TableCSV    []byte
	Manifest    []byte
}

func (r Replica) size() int64 {
	return int64(len(r.Fingerprint) + len(r.TableText) + len(r.TableCSV) + len(r.Manifest))
}

// Valid reports whether the replica is well-formed enough to store:
// a canonical fingerprint and a non-empty result.
func (r Replica) Valid() error {
	if !fingerprintRE.MatchString(r.Fingerprint) {
		return fmt.Errorf("peering: malformed fingerprint %q", r.Fingerprint)
	}
	if len(r.TableText) == 0 && len(r.TableCSV) == 0 && len(r.Manifest) == 0 {
		return fmt.Errorf("peering: empty replica for %s", r.Fingerprint)
	}
	return nil
}

// Document is the wire form of POST /v1/peer/results: the result
// document fields plus an explicit completeness marker, so a reader can
// never mistake a replica for a partial result.
type Document struct {
	Fingerprint string          `json:"fingerprint"`
	TableText   string          `json:"table_text"`
	TableCSV    string          `json:"table_csv"`
	Manifest    json.RawMessage `json:"manifest"`
	Complete    bool            `json:"complete"`
}

// StoreOptions bound a Store. Zero values take defaults.
type StoreOptions struct {
	// MaxReplicas bounds the entry count (default 512).
	MaxReplicas int
	// MaxBytes bounds total replica bytes (default 128 MiB).
	MaxBytes int64
}

// Store is the bounded in-memory LRU replica store.
type Store struct {
	mu      sync.Mutex
	max     int
	maxB    int64
	bytes   int64
	entries map[string]Replica
	order   []string // LRU order, oldest first (touched on Get and Put)
	evicted uint64
}

// NewStore builds an empty Store.
func NewStore(opts StoreOptions) *Store {
	if opts.MaxReplicas <= 0 {
		opts.MaxReplicas = 512
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 128 << 20
	}
	return &Store{
		max:     opts.MaxReplicas,
		maxB:    opts.MaxBytes,
		entries: make(map[string]Replica),
	}
}

// touch moves fp to the back of the LRU order (most recently used).
// Caller holds s.mu.
func (s *Store) touch(fp string) {
	for i, id := range s.order {
		if id == fp {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.order = append(s.order, fp)
}

// Put stores (or refreshes) a replica, evicting the least recently used
// entries to stay within bounds. An oversized replica (alone exceeding
// MaxBytes) is rejected rather than flushing the whole store.
func (s *Store) Put(r Replica) error {
	if err := r.Valid(); err != nil {
		return err
	}
	if r.size() > s.maxB {
		return fmt.Errorf("peering: replica %s is %d bytes, store bound is %d", r.Fingerprint[:12], r.size(), s.maxB)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[r.Fingerprint]; ok {
		s.bytes -= old.size()
	}
	s.entries[r.Fingerprint] = r
	s.bytes += r.size()
	s.touch(r.Fingerprint)
	for (len(s.entries) > s.max || s.bytes > s.maxB) && len(s.order) > 1 {
		victim := s.order[0]
		if victim == r.Fingerprint {
			break
		}
		s.order = s.order[1:]
		s.bytes -= s.entries[victim].size()
		delete(s.entries, victim)
		s.evicted++
	}
	return nil
}

// Get returns the replica for fp, refreshing its LRU position.
func (s *Store) Get(fp string) (Replica, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.entries[fp]
	if ok {
		s.touch(fp)
	}
	return r, ok
}

// Len reports how many replicas are held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports total replica bytes held.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Evicted reports how many replicas were LRU-evicted over the store's
// lifetime.
func (s *Store) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// membership is an immutable snapshot of the cluster the replicator
// routes against, swapped atomically on every OnMembers callback.
type membership struct {
	ring *ring.Ring
	urls map[string]string
}

// ReplicatorOptions configure a Replicator. SelfID is required.
type ReplicatorOptions struct {
	// SelfID is this worker's cluster ID; replicas never target self.
	SelfID string
	// Client performs the POSTs (default: a 10s-timeout client). Wrap
	// its transport with chaostransport to inject worker↔worker faults.
	Client *http.Client
	// Attempts bounds how many times one replica is posted before being
	// dropped (default 5).
	Attempts int
	// Backoff is the first retry delay, doubling per attempt (default
	// 250ms).
	Backoff time.Duration
	// QueueDepth bounds the write-behind queue (default 64). When full,
	// Offer drops the replica (and counts it) instead of blocking the
	// worker goroutine — the chunk directory still covers recovery.
	QueueDepth int
	// Sleep waits between retries (injectable; default time.Sleep).
	Sleep func(time.Duration)
	// Log receives replication warnings; nil discards them.
	Log *slog.Logger
	// Telemetry registers tempriv_cluster_peer_* series; nil disables.
	Telemetry *telemetry.Registry
}

// Replicator is the write-behind replica sender.
type Replicator struct {
	self     string
	client   *http.Client
	attempts int
	backoff  time.Duration
	sleep    func(time.Duration)
	log      *slog.Logger

	members atomic.Pointer[membership]
	queue   chan Replica
	idle    sync.WaitGroup // tracks in-flight sends for Wait (tests, drain)

	mReplicated *telemetry.Counter // replicas accepted by a peer
	mErrors     *telemetry.Counter // send attempts that failed
	mDropped    *telemetry.Counter // replicas dropped (queue full / attempts exhausted / no peer)
}

// NewReplicator builds a Replicator; call Run to start the send loop and
// SetMembers from the registry client's OnMembers callback.
func NewReplicator(opts ReplicatorOptions) *Replicator {
	if opts.SelfID == "" {
		panic("peering: ReplicatorOptions.SelfID is required")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 5
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 250 * time.Millisecond
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	r := &Replicator{
		self:     opts.SelfID,
		client:   opts.Client,
		attempts: opts.Attempts,
		backoff:  opts.Backoff,
		sleep:    opts.Sleep,
		log:      opts.Log,
		queue:    make(chan Replica, opts.QueueDepth),
	}
	if opts.Telemetry != nil {
		r.mReplicated = opts.Telemetry.Counter("tempriv_cluster_peer_replicated_total")
		r.mErrors = opts.Telemetry.Counter("tempriv_cluster_peer_replicate_errors_total")
		r.mDropped = opts.Telemetry.Counter("tempriv_cluster_peer_replicate_dropped_total")
	}
	return r
}

// SetMembers installs a fresh membership snapshot (wire this to the
// registry client's OnMembers). Safe from any goroutine.
func (r *Replicator) SetMembers(ws []registry.Worker) {
	urls := make(map[string]string, len(ws))
	for _, w := range ws {
		urls[w.ID] = w.URL
	}
	r.members.Store(&membership{ring: ring.New(registry.IDs(ws)), urls: urls})
}

// successor resolves the first ring successor for fp that is not this
// worker and has a known URL.
func (r *Replicator) successor(fp string) (id, url string, ok bool) {
	m := r.members.Load()
	if m == nil || m.ring.Len() == 0 {
		return "", "", false
	}
	for _, cand := range m.ring.Successors(fp, 0) {
		if cand == r.self {
			continue
		}
		if u, known := m.urls[cand]; known && u != "" {
			return cand, u, true
		}
	}
	return "", "", false
}

// Offer enqueues a finished result for replication. Never blocks: when
// the queue is full the replica is dropped and counted — peer replicas
// are an optimization over chunk-resume, not a durability requirement.
func (r *Replicator) Offer(rep Replica) {
	if err := rep.Valid(); err != nil {
		r.drop(rep, err)
		return
	}
	r.idle.Add(1)
	select {
	case r.queue <- rep:
	default:
		r.idle.Done()
		r.drop(rep, fmt.Errorf("peering: replication queue full"))
	}
}

func (r *Replicator) drop(rep Replica, err error) {
	r.mDropped.Inc()
	if r.log != nil {
		r.log.Warn("dropping result replica", "fingerprint", rep.Fingerprint, "error", err)
	}
}

// Run consumes the queue until ctx is canceled.
func (r *Replicator) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case rep := <-r.queue:
			r.send(ctx, rep)
			r.idle.Done()
		}
	}
}

// Wait blocks until every offered replica has been sent or dropped
// (tests and graceful drains).
func (r *Replicator) Wait() { r.idle.Wait() }

// send posts one replica to the fingerprint's current successor,
// retrying with exponential backoff and re-resolving the target each
// attempt so membership churn re-routes rather than fails.
func (r *Replicator) send(ctx context.Context, rep Replica) {
	backoff := r.backoff
	var lastErr error
	for attempt := 0; attempt < r.attempts; attempt++ {
		if ctx.Err() != nil {
			return
		}
		if attempt > 0 {
			r.sleep(backoff)
			backoff *= 2
		}
		peerID, peerURL, ok := r.successor(rep.Fingerprint)
		if !ok {
			// No peer to replicate to (single-worker cluster, or membership
			// not yet known). Retrying covers the startup race.
			lastErr = errNoSuccessor
			continue
		}
		if err := r.post(ctx, peerURL, rep); err != nil {
			lastErr = err
			r.mErrors.Inc()
			if r.log != nil {
				r.log.Warn("replicating result to peer failed",
					"fingerprint", rep.Fingerprint[:12], "peer", peerID, "attempt", attempt+1, "error", err)
			}
			continue
		}
		r.mReplicated.Inc()
		if r.log != nil {
			r.log.Debug("replicated result to peer", "fingerprint", rep.Fingerprint[:12], "peer", peerID)
		}
		return
	}
	if lastErr == errNoSuccessor {
		// A single-worker cluster has nowhere to replicate to. That is a
		// steady state, not a fault: no warning, no dropped counter.
		if r.log != nil {
			r.log.Debug("no peer to replicate to", "fingerprint", rep.Fingerprint[:12])
		}
		return
	}
	r.drop(rep, fmt.Errorf("peering: every attempt failed: %w", lastErr))
}

// post performs one POST /v1/peer/results against a peer.
func (r *Replicator) post(ctx context.Context, baseURL string, rep Replica) error {
	doc, err := json.Marshal(Document{
		Fingerprint: rep.Fingerprint,
		TableText:   string(rep.TableText),
		TableCSV:    string(rep.TableCSV),
		Manifest:    json.RawMessage(rep.Manifest),
		Complete:    true,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/peer/results", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer returned %s", resp.Status)
	}
	return nil
}
