// Package registry is the cluster's bulletin board: the membership
// authority where temprivd workers register with their capacity and keep
// their registration alive by heartbeating, and from which the gateway
// (internal/cluster/gateway) and the workers themselves derive the
// consistent-hash ring (internal/cluster/ring).
//
// The design follows the Π_t bulletin-board shape: there is no global
// clock and no gossip — every worker periodically re-posts its own
// record, the board stamps it with a lease, and a record whose lease
// expires without renewal is swept from the membership. Each change to
// the alive set (a new worker, a departure, an expiry) bumps a
// monotonically increasing epoch, so consumers can rebuild their ring
// exactly when membership actually changed and not on every poll.
//
// The registry itself is pure in-memory state behind a mutex with an
// injectable clock; the HTTP surface (http.go) and the worker-side lease
// client (client.go) wrap it for cross-process use. Losing the registry
// process loses only liveness bookkeeping — workers re-register on their
// next heartbeat, which is why the board needs no journal of its own.
package registry

import (
	"fmt"
	"net/url"
	"regexp"
	"sort"
	"sync"
	"time"

	"tempriv/internal/clock"
)

// DefaultLeaseTTL is how long a registration stays alive without a
// heartbeat. Workers heartbeat at TTL/3, so one lost heartbeat never
// expires a healthy worker.
const DefaultLeaseTTL = 10 * time.Second

// validWorkerID constrains worker IDs to something that can appear in
// URLs, metrics labels and ring vnode labels without escaping.
var validWorkerID = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Worker is one member's bulletin-board record.
type Worker struct {
	// ID is the worker's stable cluster identity — the unit the ring
	// shards over. Restarting a worker under the same ID reclaims its
	// shard (and its caches).
	ID string `json:"id"`
	// URL is the worker's advertised base URL ("http://host:port"), the
	// address the gateway dispatches to.
	URL string `json:"url"`
	// Capacity is the worker's advertised parallelism (its job-worker
	// pool size); informational today, a weighting input tomorrow.
	Capacity int `json:"capacity"`

	// RegisteredAt is when this ID first joined the current alive set;
	// LastHeartbeat and ExpiresAt describe the current lease.
	RegisteredAt  time.Time `json:"registered_at"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
	ExpiresAt     time.Time `json:"expires_at"`
}

// Options configure a Registry.
type Options struct {
	// LeaseTTL is the heartbeat lease duration (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Clock supplies the registry's notion of now (nil = clock.Real).
	// Tests drive lease expiry deterministically through it.
	Clock clock.Clock
}

// Registry is the in-memory bulletin board. Safe for concurrent use.
type Registry struct {
	ttl   time.Duration
	clock clock.Clock

	mu      sync.Mutex
	workers map[string]*Worker
	epoch   uint64
}

// New builds a Registry.
func New(opts Options) *Registry {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real
	}
	return &Registry{
		ttl:     opts.LeaseTTL,
		clock:   opts.Clock,
		workers: make(map[string]*Worker),
	}
}

// LeaseTTL returns the configured lease duration.
func (r *Registry) LeaseTTL() time.Duration { return r.ttl }

// Register records (or renews — a heartbeat is just a re-registration)
// a worker and returns the lease TTL plus the membership epoch after the
// call. The epoch bumps only when the alive set or a worker's dispatch
// address actually changes, so a steady-state heartbeat is epoch-neutral.
func (r *Registry) Register(w Worker) (ttl time.Duration, epoch uint64, err error) {
	if !validWorkerID.MatchString(w.ID) {
		return 0, 0, fmt.Errorf("registry: invalid worker id %q", w.ID)
	}
	u, err := url.Parse(w.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return 0, 0, fmt.Errorf("registry: worker %s: invalid base URL %q", w.ID, w.URL)
	}
	if w.Capacity < 1 {
		w.Capacity = 1
	}
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	cur, known := r.workers[w.ID]
	if !known {
		r.workers[w.ID] = &Worker{
			ID: w.ID, URL: w.URL, Capacity: w.Capacity,
			RegisteredAt: now, LastHeartbeat: now, ExpiresAt: now.Add(r.ttl),
		}
		r.epoch++
	} else {
		if cur.URL != w.URL {
			// A re-registration under the same ID from a new address is a
			// restart/move: routable state changed, consumers must rebuild.
			cur.URL = w.URL
			r.epoch++
		}
		cur.Capacity = w.Capacity
		cur.LastHeartbeat = now
		cur.ExpiresAt = now.Add(r.ttl)
	}
	return r.ttl, r.epoch, nil
}

// Deregister removes a worker immediately (graceful shutdown). Reports
// whether the worker was registered.
func (r *Registry) Deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[id]; !ok {
		return false
	}
	delete(r.workers, id)
	r.epoch++
	return true
}

// Sweep removes workers whose lease has expired and returns them (the
// gateway's reconciliation loop hands their jobs off to ring successors).
func (r *Registry) Sweep() []Worker {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweepLocked(now)
}

func (r *Registry) sweepLocked(now time.Time) []Worker {
	var expired []Worker
	for id, w := range r.workers {
		if now.After(w.ExpiresAt) {
			expired = append(expired, *w)
			delete(r.workers, id)
		}
	}
	if len(expired) > 0 {
		r.epoch++
		sort.Slice(expired, func(a, b int) bool { return expired[a].ID < expired[b].ID })
	}
	return expired
}

// Alive sweeps expired leases and returns the live membership (sorted by
// ID) together with the current epoch.
func (r *Registry) Alive() ([]Worker, uint64) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	out := make([]Worker, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, r.epoch
}

// Epoch returns the current membership epoch without sweeping.
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// IDs extracts the member IDs from a Worker slice — the ring's input.
func IDs(ws []Worker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.ID
	}
	return out
}
