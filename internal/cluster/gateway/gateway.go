// Package gateway is the cluster front door: one process that owns the
// public job API while fanning the actual work out to a fleet of temprivd
// workers sharded by spec fingerprint on a consistent-hash ring.
//
// The gateway embeds the membership registry (workers register and
// heartbeat against it), rebuilds the ring whenever the membership epoch
// moves, and keeps a routing table mapping its own job IDs to the worker
// and worker-side job ID actually running each spec. Placement is by the
// seed-inclusive spec fingerprint, so identical specs land on the same
// worker and hit its warm result cache, and membership churn only moves
// ~1/N of the keyspace.
//
// Crash handoff has one path: when a worker's lease expires (or it stays
// ejected past the grace window), the reconcile loop re-dispatches every
// job stranded on it, finished or not, to the fingerprint's current ring
// owner with X-Tempriv-Origin: handoff and the original X-Trace-Id. That
// worker's runner answers from the cheapest source it holds: its result
// cache, the replica the dead worker pushed it (internal/cluster/peering),
// the replicate chunks in the directory all workers share, and only then
// the engine. The gateway itself never serves result bytes it did not
// proxy from the job's current worker.
package gateway

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"tempriv/internal/clock"
	"tempriv/internal/cluster/registry"
	"tempriv/internal/cluster/ring"
	"tempriv/internal/jobs"
	"tempriv/internal/obs"
	"tempriv/internal/telemetry"
)

// Config assembles a Gateway. Registry is the only required field.
type Config struct {
	// Registry is the cluster membership registry; the gateway mounts its
	// HTTP surface (POST /v1/cluster/register etc.) on its own mux and
	// drives lease expiry from it.
	Registry *registry.Registry
	// Telemetry receives tempriv_cluster_* metrics; nil disables them.
	Telemetry *telemetry.Registry
	// Tracer records gateway-side spans; nil disables tracing (client
	// X-Trace-Id headers are still forwarded verbatim).
	Tracer *obs.Tracer
	// Log receives structured gateway logs; nil discards them.
	Log *slog.Logger
	// Client performs worker requests. Defaults to a client with no
	// global timeout — per-request deadlines come from contexts, and the
	// /events and ?partial=1 proxies are long-lived streams.
	Client *http.Client
	// SubmitAttempts bounds how many workers one dispatch may try, one
	// POST each (default 4).
	SubmitAttempts int
	// RetryAfterMax caps the backpressure window a worker's Retry-After
	// opens, during which dispatch passes the worker by, and the
	// Retry-After the gateway's own shed sends (default 5s).
	RetryAfterMax time.Duration
	// ReconcileEvery is the Run loop's sweep interval (default 2s).
	ReconcileEvery time.Duration
	// Clock is the gateway's time source (nil = clock.Real): health
	// cooldowns and Retry-After windows, the /events failover wait and
	// keepalive, and the reconcile loop all read it.
	Clock clock.Clock

	// Per-worker health scoring and ejection (see health.go). A worker
	// whose rolling error rate reaches EjectThreshold (default 0.5) is
	// ejected, then re-admitted via a half-open probe after EjectCooldown
	// (default 10s). A route stranded on a worker that has stayed ejected
	// for three cooldowns (ejectHandoffCooldowns) is handed off as if its
	// lease had expired — the cure for asymmetric partitions, where the
	// worker's heartbeats still arrive so the lease never dies.
	EjectThreshold float64
	EjectCooldown  time.Duration
	// ShedFactor bounds outstanding (non-terminal) routes per worker at
	// advertised-capacity × ShedFactor (default 4). When every candidate
	// for a submission is saturated, backpressured, or ejected, the
	// gateway sheds with 503 + Retry-After instead of queueing.
	ShedFactor float64
}

// Gateway fans job traffic out to registered workers.
type Gateway struct {
	reg    *registry.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	client *http.Client
	mux    *http.ServeMux

	submitAttempts int
	retryAfterMax  time.Duration
	reconcileEvery time.Duration
	clock          clock.Clock

	health     *healthTracker
	shedFactor float64

	mu        sync.Mutex
	routes    map[string]*route // gateway job ID -> route
	order     []string          // insertion order of gateway job IDs
	nextID    uint64
	ringEpoch uint64
	ringCache *ring.Ring

	// Metrics (nil when no telemetry registry is configured).
	mDispatch    *telemetry.Counter // jobs dispatched to a worker
	mFailover    *telemetry.Counter // dispatch fell through to a successor
	mHandoffs    *telemetry.Counter // crash handoffs performed
	mHandoffFail *telemetry.Counter // handoffs that found no live worker
	mEjections   *telemetry.Counter // workers ejected by health scoring
	mSheds       *telemetry.Counter // submissions shed at the gateway
	gWorkers     *telemetry.Gauge   // live workers
	gRoutes      *telemetry.Gauge   // routes in the table
	gEjected     *telemetry.Gauge   // workers currently ejected/probing
}

// route is one entry in the gateway's routing table: the mapping from the
// gateway-minted public job ID to wherever the job currently lives.
type route struct {
	ID          string // gateway job ID ("gw-000001")
	WorkerID    string
	WorkerURL   string
	WorkerJobID string
	Fingerprint string
	SpecJSON    []byte // canonical spec bytes, kept for re-dispatch
	TraceID     string // forwarded on every request for this job
	Origin      string
	Submitted   time.Time
	Handoffs    int
	// notes are synthetic events (seq -1) the gateway prepends to the
	// worker's event stream so a watcher sees crash handoffs inline.
	notes []jobs.Event
	// state is the last state observed from a worker (a snapshot, a
	// listing, or a terminal event the /events proxy delivered); the
	// reconcile loop refreshes it so handoff can skip canceled jobs and
	// outstanding() stops counting finished ones.
	state jobs.State
}

// New builds a Gateway and its HTTP surface.
func New(cfg Config) *Gateway {
	if cfg.Registry == nil {
		panic("gateway: Config.Registry is required")
	}
	g := &Gateway{
		reg:            cfg.Registry,
		tracer:         cfg.Tracer,
		log:            cfg.Log,
		client:         cfg.Client,
		submitAttempts: cfg.SubmitAttempts,
		retryAfterMax:  cfg.RetryAfterMax,
		reconcileEvery: cfg.ReconcileEvery,
		routes:         make(map[string]*route),
		mux:            http.NewServeMux(),
	}
	if g.client == nil {
		g.client = &http.Client{}
	}
	if g.submitAttempts <= 0 {
		g.submitAttempts = 4
	}
	if g.retryAfterMax <= 0 {
		g.retryAfterMax = 5 * time.Second
	}
	if g.reconcileEvery <= 0 {
		g.reconcileEvery = 2 * time.Second
	}
	g.clock = cfg.Clock
	if g.clock == nil {
		g.clock = clock.Real
	}
	g.health = newHealthTracker(cfg.EjectThreshold, cfg.EjectCooldown, g.clock)
	g.shedFactor = cfg.ShedFactor
	if g.shedFactor <= 0 {
		g.shedFactor = 4
	}
	if cfg.Telemetry != nil {
		g.mDispatch = cfg.Telemetry.Counter("tempriv_cluster_dispatch_total")
		g.mFailover = cfg.Telemetry.Counter("tempriv_cluster_dispatch_failover_total")
		g.mHandoffs = cfg.Telemetry.Counter("tempriv_cluster_handoffs_total")
		g.mHandoffFail = cfg.Telemetry.Counter("tempriv_cluster_handoff_failures_total")
		g.mEjections = cfg.Telemetry.Counter("tempriv_cluster_ejections_total")
		g.mSheds = cfg.Telemetry.Counter("tempriv_sheds_total")
		g.gWorkers = cfg.Telemetry.Gauge("tempriv_cluster_workers")
		g.gRoutes = cfg.Telemetry.Gauge("tempriv_cluster_routes")
		g.gEjected = cfg.Telemetry.Gauge("tempriv_cluster_ejected_workers")
	}
	g.health.onEject = func(id string) {
		g.mEjections.Inc()
		g.gEjected.Set(float64(g.health.ejectedCount()))
		if g.log != nil {
			g.log.Warn("worker ejected by health scoring", "worker", id)
		}
	}
	g.health.onRestore = func(id string) {
		g.gEjected.Set(float64(g.health.ejectedCount()))
		if g.log != nil {
			g.log.Info("worker restored after half-open probe", "worker", id)
		}
	}

	g.reg.Mount(g.mux)
	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("GET /v1/jobs", g.handleList)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleStatus)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleCancel)
	g.mux.HandleFunc("GET /v1/jobs/{id}/result", g.handleResult)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	g.mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	g.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	g.mux.HandleFunc("GET /readyz", g.handleReady)
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry
		g.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			reg.ServeHTTP(w, r)
		})
	}
	return g
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// currentRing returns the ring for the live membership, rebuilding only
// when the registry epoch has moved since the last build. The returned
// worker list is the ring's source membership (sorted by ID).
func (g *Gateway) currentRing() (*ring.Ring, []registry.Worker, uint64) {
	alive, epoch := g.reg.Alive()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ringCache == nil || epoch != g.ringEpoch || g.ringCache.Len() != len(alive) {
		g.ringCache = ring.New(registry.IDs(alive))
		g.ringEpoch = epoch
	}
	g.gWorkers.Set(float64(len(alive)))
	return g.ringCache, alive, epoch
}

// workerByID resolves a worker ID to its registration in ws.
func workerByID(ws []registry.Worker, id string) (registry.Worker, bool) {
	for _, w := range ws {
		if w.ID == id {
			return w, true
		}
	}
	return registry.Worker{}, false
}

// lookup fetches a route by gateway job ID.
func (g *Gateway) lookup(id string) (*route, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rt, ok := g.routes[id]
	return rt, ok
}

// mintID allocates the next gateway job ID.
func (g *Gateway) mintID() string {
	g.nextID++
	return fmt.Sprintf("gw-%06d", g.nextID)
}

// insertRoute registers a freshly dispatched route.
func (g *Gateway) insertRoute(rt *route) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.routes[rt.ID] = rt
	g.order = append(g.order, rt.ID)
	g.gRoutes.Set(float64(len(g.routes)))
}

// snapshotRoutes returns the routing table in insertion order.
func (g *Gateway) snapshotRoutes() []*route {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*route, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.routes[id])
	}
	return out
}

// Routes reports the number of tracked jobs (tests and /v1/cluster).
func (g *Gateway) Routes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.routes)
}

// clusterView is the GET /v1/cluster document.
type clusterView struct {
	Epoch   uint64                `json:"epoch"`
	Workers []registry.Worker     `json:"workers"`
	Ring    []string              `json:"ring"`
	Jobs    int                   `json:"jobs"`
	Health  map[string]healthView `json:"health,omitempty"`
}

func (g *Gateway) handleCluster(w http.ResponseWriter, _ *http.Request) {
	rg, alive, epoch := g.currentRing()
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })
	writeJSON(w, http.StatusOK, clusterView{
		Epoch:   epoch,
		Workers: alive,
		Ring:    rg.Members(),
		Jobs:    g.Routes(),
		Health:  g.health.view(),
	})
}

func (g *Gateway) handleReady(w http.ResponseWriter, _ *http.Request) {
	_, alive, _ := g.currentRing()
	if len(alive) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no live workers registered"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "workers": len(alive)})
}
