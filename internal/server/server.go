// Package server exposes the simulation-as-a-service HTTP API served by
// cmd/temprivd:
//
//	POST /v1/jobs           submit a scenario spec; 202 + job snapshot
//	GET  /v1/jobs           list jobs
//	GET  /v1/jobs/{id}        job status snapshot
//	DELETE /v1/jobs/{id}      cancel a job
//	GET  /v1/jobs/{id}/result completed result (tables + manifest);
//	                          ?partial=1 streams per-replicate chunks (JSONL)
//	GET  /v1/jobs/{id}/events progress stream, one JSON object per line
//	GET  /v1/traces/{jobID}   the job's end-to-end trace as a JSON span tree
//	GET  /v1/cache            result-cache effectiveness counters
//	POST /v1/peer/results     accept a ring predecessor's finished result
//	                          (cluster workers only; see Config.Peers)
//	GET  /healthz             liveness probe (always 200 while the process serves)
//	GET  /readyz              readiness probe (503 during journal replay and drain)
//	GET  /metrics             Prometheus text format (telemetry registry)
//	GET  /debug/pprof/...     net/http/pprof (gated by Config.DisableDebugEndpoints)
//
// The server owns no execution logic: submissions validate through
// internal/scenario and execute through the internal/jobs queue, whose
// Runner (built here) answers from the cheapest source it holds: the
// internal/resultcache, then a replica a ring predecessor pushed
// (internal/cluster/peering), then the persisted replicate chunks
// (internal/resultstream), and only then the engine. Every source yields
// the same bytes, because every result is keyed by its seed-inclusive
// spec fingerprint.
//
// Tracing contract: when a Tracer is configured (internal/obs), every
// accepted submission mints a trace whose span tree follows the job
// end-to-end — ingress parsing, queue wait, the job's one run attempt,
// cache consultation, per-replicate engine execution, chunk
// persistence and the cache fill. Clients may supply their own trace ID in
// an X-Trace-Id request header (8–64 chars of [A-Za-z0-9._-]; anything
// else is replaced with a minted ID, never rejected); the effective ID is
// echoed back in the response's X-Trace-Id header and resolvable at
// GET /v1/traces/{jobID} while the trace remains in the flight recorder.
//
// Error contract: every error response is a JSON document
// {"error": "...", "status": N} — including the mux's own 404/405s, which
// are intercepted and rewritten — and every load-shedding response (429,
// 503) carries a Retry-After header so well-behaved clients back off
// instead of hammering a draining or saturated server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"tempriv/internal/cluster/peering"
	"tempriv/internal/jobs"
	"tempriv/internal/obs"
	"tempriv/internal/resultcache"
	"tempriv/internal/resultstream"
	"tempriv/internal/scenario"
	"tempriv/internal/telemetry"
)

// maxSpecBytes bounds a submitted scenario document.
const maxSpecBytes = 1 << 20

// Readiness states reported by /readyz. Only ReadyServing answers 200;
// the others answer 503 + Retry-After so orchestrators hold traffic while
// the journal replays at boot and route away during drain — without
// /healthz ever going red (the process is alive the whole time).
const (
	ReadyStarting  = "starting"
	ReadyReplaying = "replaying"
	ReadyServing   = "ready"
	ReadyDraining  = "draining"
)

// defaultEventKeepalive is how often an idle /events stream emits a
// keepalive line so intermediaries don't reap the connection and the
// server notices (and drops) clients that went away.
const defaultEventKeepalive = 15 * time.Second

// Config assembles a Server. Every field but Queue is optional; the zero
// value of each optional field disables its feature at no cost.
type Config struct {
	// Queue executes submissions (required).
	Queue *jobs.Queue
	// Cache answers repeated scenarios without re-simulating.
	Cache *resultcache.Cache
	// Chunks serves partial results and makes runs resumable.
	Chunks *resultstream.Store
	// Registry backs /metrics and the server's own counters.
	Registry *telemetry.Registry
	// Tracer mints per-job traces at ingress and serves /v1/traces.
	Tracer *obs.Tracer
	// SLOs are synced (burn-rate gauges recomputed) before every /metrics
	// scrape.
	SLOs obs.SLOSet
	// RequestSLO observes every API request's latency (the all-traffic
	// objective; stage-specific SLOs hang off the runner instead).
	RequestSLO *obs.SLO
	// Log receives structured request records (method, path, status,
	// duration) at debug level, 5xx at error level.
	Log *slog.Logger
	// DisableDebugEndpoints removes /debug/pprof and /debug/vars from the
	// mux. The default (false) keeps them registered — the operational
	// posture every earlier release shipped — while letting deployments
	// that front temprivd to untrusted networks turn them off
	// (temprivd -debug-endpoints=false).
	DisableDebugEndpoints bool
	// Peers, when non-nil, mounts POST /v1/peer/results, which stores a
	// ring predecessor's finished result. The runner reads the same store
	// (RunnerConfig.Peers), so a job handed here after that predecessor
	// dies is answered from the replica instead of recomputed.
	Peers *peering.Store
	// ClusterID and ClusterOwns give a cluster-member worker its
	// ownership check: when both are set, every submission's fingerprint
	// is looked up on the worker's locally derived consistent-hash ring
	// (internal/cluster/ring, membership from the registry lease client).
	// A submission this worker does not own is still accepted — the job
	// runs correctly anywhere, only cache locality suffers — but it is
	// counted (tempriv_cluster_misdirected_total), annotated on the trace,
	// and answered with an X-Tempriv-Owner header naming the expected
	// owner so the gateway can spot stale routing. ClusterOwns returns
	// the owning worker ID and whether membership is known yet (false
	// during startup = no check).
	ClusterID   string
	ClusterOwns func(fingerprint string) (owner string, known bool)
}

// Server routes the HTTP API onto a job queue and an optional result cache.
type Server struct {
	queue  *jobs.Queue
	cache  *resultcache.Cache
	chunks *resultstream.Store
	reg    *telemetry.Registry
	tracer *obs.Tracer
	slos   obs.SLOSet
	reqSLO *obs.SLO
	log    *slog.Logger
	mux    *http.ServeMux
	sheds  *telemetry.Counter // load-shedding rejections (429/503)

	peers        *peering.Store
	peerReceived *telemetry.Counter
	peerHeld     *telemetry.Gauge

	clusterID   string
	clusterOwns func(fingerprint string) (owner string, known bool)
	misdirected *telemetry.Counter

	// EventKeepalive overrides the /events keepalive cadence (default
	// defaultEventKeepalive; set before serving — it is read per request
	// without locking).
	EventKeepalive time.Duration

	stopOnce sync.Once
	stopCh   chan struct{}

	mu        sync.Mutex
	readiness string
}

// New assembles the API. The server starts in the ReadyStarting state;
// the daemon advances it via SetReady as boot proceeds.
func New(cfg Config) *Server {
	s := &Server{
		queue:     cfg.Queue,
		cache:     cfg.Cache,
		chunks:    cfg.Chunks,
		reg:       cfg.Registry,
		tracer:    cfg.Tracer,
		slos:      cfg.SLOs,
		reqSLO:    cfg.RequestSLO,
		log:       cfg.Log,
		mux:       http.NewServeMux(),
		stopCh:    make(chan struct{}),
		readiness: ReadyStarting,
	}
	s.clusterID = cfg.ClusterID
	s.clusterOwns = cfg.ClusterOwns
	s.peers = cfg.Peers
	if s.reg != nil {
		s.sheds = s.reg.Counter("tempriv_sheds_total")
		if s.clusterOwns != nil {
			s.misdirected = s.reg.Counter("tempriv_cluster_misdirected_total")
		}
		if s.peers != nil {
			s.peerReceived = s.reg.Counter("tempriv_cluster_peer_received_total")
			s.peerHeld = s.reg.Gauge("tempriv_cluster_peer_replicas_held")
		}
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/traces/{jobID}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheStats)
	if s.peers != nil {
		s.mux.HandleFunc("POST /v1/peer/results", s.handlePeerPut)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if s.reg != nil {
		s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			// Burn rates are derived from windowed state, not stored — sync
			// them so every scrape exports rates as fresh as its counters.
			s.slos.Sync()
			s.reg.ServeHTTP(w, r)
		})
	}
	if !cfg.DisableDebugEndpoints {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.mux.Handle("/debug/vars", expvar.Handler())
	}
	return s
}

// SetReady moves the readiness state machine (starting → replaying →
// ready → draining). Safe from any goroutine.
func (s *Server) SetReady(state string) {
	s.mu.Lock()
	s.readiness = state
	s.mu.Unlock()
}

// Readiness returns the current /readyz state.
func (s *Server) Readiness() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readiness
}

// Stop tells long-lived handlers (the /events streams) to terminate.
// Called at shutdown before http.Server.Shutdown, which otherwise waits
// forever for streaming clients to hang up on their own. Idempotent.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
}

// ServeHTTP implements http.Handler. Responses are filtered so that any
// plain-text error (the mux's own 404/405) leaves as the JSON error
// contract instead; every request feeds the request SLO and, with a
// logger configured, leaves one structured access record.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	jw := &jsonErrorWriter{rw: w}
	s.mux.ServeHTTP(jw, r)
	jw.finish()
	elapsed := time.Since(start)
	s.reqSLO.Observe(elapsed)
	if s.log != nil {
		status := jw.status
		if status == 0 {
			status = http.StatusOK
		}
		level := slog.LevelDebug
		if status >= http.StatusInternalServerError {
			level = slog.LevelError
		}
		s.log.LogAttrs(r.Context(), level, "http request",
			slog.String("method", r.Method), slog.String("path", r.URL.Path),
			slog.Int("status", status), slog.Duration("elapsed", elapsed))
	}
}

// RunnerConfig parameterises NewRunner. Every field is optional; the zero
// value of each disables the corresponding feature.
type RunnerConfig struct {
	Cache            *resultcache.Cache
	Registry         *telemetry.Registry
	ReplicateWorkers int
	Chunks           *resultstream.Store
	// Peers holds the finished results ring predecessors replicated here
	// (the store behind POST /v1/peer/results). A fingerprint found in it
	// is answered from the replica with no engine run.
	Peers *peering.Store
	// CachedResultSLO observes the latency of every cache-hit answer (the
	// "cached results are fast" objective). Fresh runs don't feed it — their
	// latency is governed by replicate count, not by serving health.
	CachedResultSLO *obs.SLO
}

// NewRunner builds the queue Runner that gives the server (and anything
// else sharing the queue) its cheapest-source-first execution path. For
// each job's fingerprint it answers from, in order:
//
//  1. the result cache (a hit: CacheHit set, nothing else runs);
//  2. the peer replica store, which after a crash handoff holds the dead
//     ring predecessor's finished result (no engine run; counted in
//     tempriv_cluster_peer_served_total, not temprivd_runs_total);
//  3. the chunk store: every fresh run streams each replicate's table
//     into it as it completes, so a SIGKILL loses only the replicate in
//     flight and the re-run (same fingerprint, any worker sharing the
//     directory) resumes from the surviving chunks;
//  4. the engine, for whatever replicates are still missing.
//
// The artifacts are byte-identical whichever source answers, because the
// chunks feed the same reduction in the same order and a replica is the
// finished document itself. A result from tiers 2–4 is stored in the
// cache, after which that fingerprint's chunks are removed.
//
// Storage sickness never fails a job here: the cache converts corrupt
// entries and I/O errors into misses (quarantining / breaker-bypassing
// internally), a failed Put costs only the cache fill, and a sick chunk
// store degrades to a plain non-resumable run.
func NewRunner(cfg RunnerConfig) jobs.Runner {
	cache, reg, chunks, peers := cfg.Cache, cfg.Registry, cfg.Chunks, cfg.Peers
	replicateWorkers := cfg.ReplicateWorkers
	hits := reg.Counter("temprivd_cache_hits_total")
	misses := reg.Counter("temprivd_cache_misses_total")
	runs := reg.Counter("temprivd_runs_total")
	chunksWritten := reg.Counter("tempriv_chunks_written_total")
	chunksQuarantined := reg.Counter("tempriv_chunks_quarantined_total")
	replicatesSkipped := reg.Counter("tempriv_replicates_skipped_on_resume_total")
	var peerServed *telemetry.Counter
	if peers != nil {
		peerServed = reg.Counter("tempriv_cluster_peer_served_total")
	}
	return func(ctx context.Context, job *jobs.Job, progress func(stage, message string)) (*jobs.Result, error) {
		fp := job.Fingerprint
		// The attempt span arrives via ctx (zero when tracing is off); the
		// cache and chunk stages hang off it.
		attempt := obs.SpanFromContext(ctx)
		// fill stores a result the cache did not answer, then drops that
		// fingerprint's chunks: the assembled artifact is durable, so the
		// per-replicate chunks have served their purpose.
		fill := func(res *jobs.Result) *jobs.Result {
			if cache == nil {
				return res
			}
			putSpan := attempt.Child("cache")
			putSpan.Annotate("op", "put")
			err := cache.Put(&resultcache.Entry{
				Fingerprint: res.Fingerprint,
				TableText:   res.TableText,
				TableCSV:    res.TableCSV,
				Manifest:    res.Manifest,
			})
			putSpan.EndErr(err)
			if err != nil {
				// The result is in hand; failing to cache it must not fail
				// the job. Surface the problem as a progress event instead.
				progress("cache", "store failed: "+err.Error())
			} else if chunks != nil {
				_ = chunks.Remove(res.Fingerprint)
			}
			return res
		}
		if cache != nil {
			lookupStart := time.Now()
			cacheSpan := attempt.Child("cache")
			cacheSpan.Annotate("op", "get")
			entry, ok, err := cache.Get(fp)
			if err != nil {
				// Only a malformed fingerprint reaches here (I/O trouble is
				// already a miss); treat it as a miss and recompute.
				progress("cache", "get failed: "+err.Error())
			}
			if ok {
				cacheSpan.Annotate("outcome", "hit")
				cacheSpan.End()
				hits.Inc()
				progress("cache", "hit "+fp[:12])
				if chunks != nil {
					// Any chunks for this fingerprint are leftovers from a run
					// that crashed after its cache fill; the cache entry IS
					// the result, so they are no longer needed.
					_ = chunks.Remove(fp)
				}
				cfg.CachedResultSLO.Observe(time.Since(lookupStart))
				return &jobs.Result{
					Fingerprint: fp,
					CacheHit:    true,
					TableText:   entry.TableText,
					TableCSV:    entry.TableCSV,
					Manifest:    entry.Manifest,
				}, nil
			}
			cacheSpan.Annotate("outcome", "miss")
			cacheSpan.EndErr(err)
			misses.Inc()
		}
		if peers != nil {
			if rep, ok := peers.Get(fp); ok {
				// A crash handoff brought the job to the worker holding the
				// dead owner's replica: the finished document is already here.
				peerServed.Inc()
				progress("replica", "served from peer replica "+fp[:12])
				return fill(&jobs.Result{
					Fingerprint: fp,
					TableText:   rep.TableText,
					TableCSV:    rep.TableCSV,
					Manifest:    rep.Manifest,
				}), nil
			}
		}
		runs.Inc()
		opts := scenario.Options{
			Progress:         progress,
			ReplicateWorkers: replicateWorkers,
		}
		var sink *resultstream.Sink
		if chunks != nil {
			k, err := chunks.Sink(fp, job.Spec.Replicates(), resultstream.SinkHooks{
				Span: attempt,
				Written: func(persisted int) {
					chunksWritten.Inc()
					job.NoteChunks(persisted)
				},
				Skipped: func(int) { replicatesSkipped.Inc() },
				Quarantined: func(n int) {
					chunksQuarantined.Add(uint64(n))
					progress("chunks", fmt.Sprintf("%d corrupt chunk(s) quarantined; their replicates recompute", n))
				},
				AppendError: func(err error) {
					progress("chunks", "append failed (durability degraded): "+err.Error())
				},
			})
			if err != nil {
				// A sick chunk store must not fail the job: run without
				// streaming durability, exactly as before this feature.
				progress("chunks", "chunk store unavailable: "+err.Error())
			} else {
				sink = k
				// Assigned only when non-nil: a typed-nil ReplicateSink would
				// pass the engine's interface check and then panic on use.
				opts.Sink = k
				if n := k.Persisted(); n > 0 {
					progress("chunks", fmt.Sprintf("resuming: %d replicate chunk(s) survive", n))
					job.NoteChunks(n)
				}
			}
		}
		out, err := scenario.Run(ctx, job.Spec, opts)
		if sink != nil {
			if cerr := sink.Close(); cerr != nil {
				progress("chunks", "closing chunk writer: "+cerr.Error())
			}
		}
		if err != nil {
			// The chunks written so far stay on disk — they are exactly what
			// a re-run after restart or handoff resumes from.
			return nil, err
		}
		manifest, err := out.ManifestJSON()
		if err != nil {
			return nil, err
		}
		return fill(&jobs.Result{
			Fingerprint: fp,
			TableText:   out.TableText,
			TableCSV:    out.TableCSV,
			Manifest:    manifest,
		}), nil
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	state := s.Readiness()
	if state == ReadyServing {
		writeJSON(w, http.StatusOK, map[string]string{"status": state})
		return
	}
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("not ready: %s", state))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Mint (or adopt via X-Trace-Id) the job's trace at the door: the root
	// span outlives this handler — the queue ends it when the job reaches a
	// terminal state — while the ingress span covers just the parse+submit
	// work done here. With no tracer configured both refs are zero and every
	// call below no-ops.
	ctx, root := s.tracer.StartTrace(r.Context(), r.Header.Get("X-Trace-Id"), "job")
	if root.Enabled() {
		w.Header().Set("X-Trace-Id", root.TraceID())
	}
	ingress := root.Child("ingress")
	rejected := func(status int, err error) {
		// A rejected submission still finishes its trace (it will never
		// bind to a job, so it is only reachable by trace ID).
		ingress.EndErr(err)
		root.AnnotateInt("status", int64(status))
		root.EndErr(err)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		rejected(http.StatusBadRequest, err)
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		err := fmt.Errorf("spec exceeds %d bytes", maxSpecBytes)
		rejected(http.StatusRequestEntityTooLarge, err)
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		rejected(http.StatusBadRequest, err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Cluster ownership check: a misdirected spec (stale gateway ring,
	// direct submission to the wrong worker) is accepted anyway — it runs
	// correctly here, just without cache locality — but the mismatch is
	// counted, traced and surfaced so the router can correct itself.
	if s.clusterOwns != nil {
		if fp, fpErr := spec.Fingerprint(); fpErr == nil {
			if owner, known := s.clusterOwns(fp); known && owner != "" {
				w.Header().Set("X-Tempriv-Owner", owner)
				if owner != s.clusterID {
					s.misdirected.Inc()
					root.Annotate("misdirected_owner", owner)
					if s.log != nil {
						s.log.Warn("accepted a job this worker does not own",
							"owner", owner, "self", s.clusterID, "fingerprint", fp)
					}
				}
			}
		}
	}
	snap, err := s.queue.Submit(ctx, spec, submitOrigin(r))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		rejected(http.StatusTooManyRequests, err)
		s.shed(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrDraining):
		rejected(http.StatusServiceUnavailable, err)
		s.shed(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		rejected(http.StatusInternalServerError, err)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ingress.End()
	writeJSON(w, http.StatusAccepted, snap)
}

// handleTrace serves a job's span tree from the tracer's flight recorder.
// Live jobs render with Complete=false and open spans at duration -1; a
// trace evicted from the ring (or a boot-restored job, which predates its
// process's tracer) is a 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	jobID := r.PathValue("jobID")
	tree, ok := s.tracer.ByJob(jobID)
	if !ok {
		if _, exists := s.queue.Get(jobID); exists {
			writeError(w, http.StatusNotFound, errors.New("no trace retained for this job (evicted from the flight recorder, or the job predates this process)"))
			return
		}
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, tree)
}

// shed rejects a submission with backpressure semantics: counted in
// tempriv_sheds_total, answered with Retry-After (writeError adds it for
// 429/503).
func (s *Server) shed(w http.ResponseWriter, status int, err error) {
	s.sheds.Inc()
	writeError(w, status, err)
}

// submitOrigin extracts a submission's provenance from the
// X-Tempriv-Origin header. Only known origin tokens are honored — an
// arbitrary client string must not flow into events, logs and the
// journal.
func submitOrigin(r *http.Request) string {
	if r.Header.Get("X-Tempriv-Origin") == jobs.OriginHandoff {
		return jobs.OriginHandoff
	}
	return ""
}

// handleList serves GET /v1/jobs, optionally filtered by ?state= — a
// comma-separated list of job states ("done,failed,canceled"). The
// cluster gateway's reconciliation loop uses exactly that terminal
// filter to refresh its routing table after a worker lease expires, and
// operators use it to find stuck or failed jobs without paging through
// history. An unknown state is a 400 (fail closed, like the rest of the
// validation surface).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := s.queue.List()
	if raw := r.URL.Query().Get("state"); raw != "" {
		want := make(map[jobs.State]bool)
		for _, part := range strings.Split(raw, ",") {
			st := jobs.State(strings.TrimSpace(part))
			switch st {
			case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
				want[st] = true
			default:
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q (valid: queued, running, done, failed, canceled)", part))
				return
			}
		}
		filtered := make([]jobs.Snapshot, 0, len(list))
		for _, snap := range list {
			if want[snap.State] {
				filtered = append(filtered, snap)
			}
		}
		list = filtered
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.queue.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// resultBody is the deterministic result document: identical bytes for a
// cache hit and the fresh run that populated it (the cache-or-run flag
// lives on the job snapshot, not here, precisely to keep this body
// content-addressed).
type resultBody struct {
	Fingerprint string          `json:"fingerprint"`
	TableText   string          `json:"table_text"`
	TableCSV    string          `json:"table_csv"`
	Manifest    json.RawMessage `json:"manifest"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if r.URL.Query().Get("partial") == "1" {
		s.servePartialResult(w, snap)
		return
	}
	res, ok := s.queue.Result(id)
	if ok {
		writeJSON(w, http.StatusOK, resultBody{
			Fingerprint: res.Fingerprint,
			TableText:   string(res.TableText),
			TableCSV:    string(res.TableCSV),
			Manifest:    json.RawMessage(res.Manifest),
		})
		return
	}
	if snap.State == jobs.StateDone {
		// The job finished in a previous process life (journal replay keeps
		// it queryable) so its bytes live only in the result cache. Content
		// addressing makes this exact: the cached entry for the job's
		// fingerprint IS the job's result.
		if s.cache != nil && len(snap.Fingerprint) == 64 {
			if entry, hit, err := s.cache.Get(snap.Fingerprint); err == nil && hit {
				writeJSON(w, http.StatusOK, resultBody{
					Fingerprint: entry.Fingerprint,
					TableText:   string(entry.TableText),
					TableCSV:    string(entry.TableCSV),
					Manifest:    json.RawMessage(entry.Manifest),
				})
				return
			}
		}
		writeError(w, http.StatusGone, errors.New("job completed before a restart and its cached result is no longer available; resubmit the spec"))
		return
	}
	// Still in flight: tell the client when to come back, and that the
	// replicates persisted so far are available under ?partial=1.
	w.Header().Set("Retry-After", "2")
	writeError(w, http.StatusConflict, fmt.Errorf("job is %s, no result available yet (persisted partial replicates: ?partial=1)", snap.State))
}

// partialLine is one line of the ?partial=1 JSONL stream: either a
// persisted replicate (Rep + Table set) or the trailing completeness
// marker (Complete et al. set).
type partialLine struct {
	Rep   *int            `json:"rep,omitempty"`
	Table json.RawMessage `json:"table,omitempty"`

	Complete        *bool  `json:"complete,omitempty"`
	State           string `json:"state,omitempty"`
	ReplicatesTotal int    `json:"replicates_total,omitempty"`
	ReplicatesDone  int    `json:"replicates_done,omitempty"`
}

// servePartialResult streams whatever replicate chunks have been persisted
// for the job's fingerprint as JSON Lines — one line per replicate in
// replicate order, then a completeness marker — so a client can consume a
// long sweep's statistics while the job still runs, and knows exactly how
// much is in hand after a crash. Incomplete responses carry Retry-After.
func (s *Server) servePartialResult(w http.ResponseWriter, snap jobs.Snapshot) {
	if s.chunks == nil {
		writeError(w, http.StatusNotFound, errors.New("partial results unavailable: no chunk store configured"))
		return
	}
	rr, err := s.chunks.Read(snap.Fingerprint)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("reading chunks: %w", err))
		return
	}
	byRep := rr.ByRep()
	reps := make([]int, 0, len(byRep))
	for rep := range byRep {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	complete := snap.State == jobs.StateDone
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	if !complete {
		w.Header().Set("Retry-After", "2")
	}
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, rep := range reps {
		rep := rep
		_ = enc.Encode(partialLine{Rep: &rep, Table: byRep[rep].Payload})
	}
	_ = enc.Encode(partialLine{
		Complete:        &complete,
		State:           string(snap.State),
		ReplicatesTotal: snap.Replicates,
		ReplicatesDone:  len(reps),
	})
}

// handleEvents streams the job's progress as JSON Lines: full history
// first, then live events until the job finishes, the client leaves, or
// the server stops (shutdown closes every stream promptly so Shutdown's
// drain is not hostage to long-lived watchers). Idle streams emit a
// {"keepalive":true} line on a timer, which both holds proxies open and
// detects dead clients — a failed keepalive write ends the handler and
// releases the watcher instead of leaking it until the job finishes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	history, live, stop, ok := s.queue.Watch(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev jobs.Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range history {
		if !emit(ev) {
			return
		}
	}
	keepEvery := s.EventKeepalive
	if keepEvery <= 0 {
		keepEvery = defaultEventKeepalive
	}
	keep := time.NewTicker(keepEvery)
	defer keep.Stop()
	for {
		select {
		case ev, open := <-live:
			if !open {
				return
			}
			if !emit(ev) {
				return
			}
			keep.Reset(keepEvery)
		case <-keep.C:
			if _, err := io.WriteString(w, "{\"keepalive\":true}\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-s.stopCh:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// maxPeerDocBytes bounds an accepted peer replica document — generous,
// since result tables scale with sweep size, but still a hard cap so a
// confused peer cannot balloon this process.
const maxPeerDocBytes = 32 << 20

// handlePeerPut accepts a ring predecessor's finished result replica
// (POST /v1/peer/results). Only complete results are admitted; the store
// bounds memory by LRU-evicting cold replicas.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPeerDocBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxPeerDocBytes {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("replica document exceeds %d bytes", maxPeerDocBytes))
		return
	}
	var doc peering.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding replica: %w", err))
		return
	}
	if !doc.Complete {
		writeError(w, http.StatusBadRequest, errors.New("replica is not marked complete; partial results replicate via the chunk store, not peering"))
		return
	}
	if err := s.peers.Put(peering.Replica{
		Fingerprint: doc.Fingerprint,
		TableText:   []byte(doc.TableText),
		TableCSV:    []byte(doc.TableCSV),
		Manifest:    []byte(doc.Manifest),
	}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.peerReceived.Inc()
	s.peerHeld.Set(float64(s.peers.Len()))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"enabled": true, "stats": s.cache.Stats()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error document every failing response carries.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError emits the JSON error contract. Backpressure statuses (429,
// 503) additionally carry Retry-After so clients know the rejection is
// about load, not about their request.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Status: status})
}

// jsonErrorWriter upholds the JSON error contract for responses the
// handlers never see: the mux's built-in 404 (no route) and 405 (wrong
// method) write text/plain bodies, which this wrapper swallows and
// rewrites via writeError. Responses that already declare JSON (all
// handler output) pass through untouched.
type jsonErrorWriter struct {
	rw          http.ResponseWriter
	wroteHeader bool
	intercepted bool
	status      int // the response status, recorded for the access log
}

func (j *jsonErrorWriter) Header() http.Header { return j.rw.Header() }

func (j *jsonErrorWriter) WriteHeader(status int) {
	if j.wroteHeader {
		return
	}
	j.wroteHeader = true
	j.status = status
	ct := j.rw.Header().Get("Content-Type")
	if status >= http.StatusBadRequest && !strings.HasPrefix(ct, "application/json") {
		// Hold the response: finish() rewrites it as the JSON contract.
		j.intercepted = true
		j.status = status
		return
	}
	j.rw.WriteHeader(status)
}

func (j *jsonErrorWriter) Write(p []byte) (int, error) {
	if !j.wroteHeader {
		j.WriteHeader(http.StatusOK)
	}
	if j.intercepted {
		// Discard the plain-text error body; report it written so the
		// originating handler does not see a broken connection.
		return len(p), nil
	}
	return j.rw.Write(p)
}

// Flush implements http.Flusher so the /events stream keeps its live
// semantics through the wrapper.
func (j *jsonErrorWriter) Flush() {
	if j.intercepted {
		return
	}
	if f, ok := j.rw.(http.Flusher); ok {
		f.Flush()
	}
}

// finish emits the rewritten error for an intercepted response.
func (j *jsonErrorWriter) finish() {
	if !j.intercepted {
		return
	}
	h := j.rw.Header()
	h.Del("Content-Length")
	h.Del("X-Content-Type-Options")
	writeError(j.rw, j.status, errors.New(strings.ToLower(http.StatusText(j.status))))
}
