// Command temprivd serves the simulator as a long-running service: clients
// POST versioned scenario specs to /v1/jobs, a bounded worker pool executes
// them, and a fingerprint-keyed on-disk result cache answers repeated
// scenarios without re-simulating (byte-identical to a fresh run — every
// scenario is seed-deterministic).
//
//	temprivd -addr localhost:7077 -cache ./cache -journal ./journal
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id}, /result, /events
// (JSONL progress stream), DELETE /v1/jobs/{id}, GET /v1/traces/{jobID}
// (end-to-end span tree), GET /v1/cache, /healthz, /readyz, /metrics
// (Prometheus text), /debug/pprof (disable with -debug-endpoints=false).
//
// Observability: every accepted job is traced end to end (ingress → queue →
// attempt → cache → engine replicates → chunk persistence); the
// most recent traces stay queryable at /v1/traces/{jobID} and, with
// -trace-dir set, every finished trace appends to trace-dir/traces.jsonl.
// Logs are structured (log/slog; -log-format text|json, -log-level) and
// carry trace_id/job_id automatically. /metrics additionally exports
// tempriv_slo_* burn-rate series for the request-latency and cached-result
// objectives, and tempriv_build_info identifies the running build
// (-version prints the same identity).
//
// Durability: with -journal set, every accepted job and every state change
// is appended (fsynced) to a write-ahead journal before the HTTP response
// goes out. After a crash — SIGKILL included — the next boot replays the
// journal: finished jobs stay queryable (results re-served from the cache
// by fingerprint), interrupted jobs re-enqueue and run to completion.
// /readyz answers 503 until replay finishes, then flips to 200; /healthz
// is pure liveness and stays 200 throughout.
//
// Jobs are not retried: each accepted job runs once, bounded by
// -run-timeout, and a failed run stays failed.
//
// SIGTERM/SIGINT drains gracefully: /readyz goes not-ready, no new
// submissions, in-flight jobs finish (up to -drain-timeout), live /events
// streams are closed, then the listener closes. Jobs still unfinished at
// -drain-timeout are stopped without a terminal journal record, so with
// -journal set the next boot re-enqueues them and they run then.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"tempriv/internal/buildinfo"
	"tempriv/internal/cluster/chaostransport"
	"tempriv/internal/cluster/peering"
	"tempriv/internal/cluster/registry"
	"tempriv/internal/cluster/ring"
	"tempriv/internal/jobs"
	"tempriv/internal/jobstore"
	"tempriv/internal/obs"
	"tempriv/internal/resultcache"
	"tempriv/internal/resultstream"
	"tempriv/internal/scenario"
	"tempriv/internal/server"
	"tempriv/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "temprivd:", err)
		os.Exit(1)
	}
}

// testHookReplaying, when non-nil, runs while the listener is up but
// /readyz still reports "replaying" — tests use it to observe the
// not-ready window deterministically.
var testHookReplaying func()

// run starts the daemon and blocks until ctx is canceled and the drain
// completes. When ready is non-nil it receives the resolved listen address
// once the server is accepting (tests listen on port 0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("temprivd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "localhost:7077", "listen address (port 0 picks an ephemeral port)")
		cacheDir     = fs.String("cache", "", "result-cache directory (empty = caching disabled)")
		cacheMaxMB   = fs.Int64("cache-max-mb", 256, "result-cache size bound in MiB (-1 = unbounded)")
		journalDir   = fs.String("journal", "", "job journal directory (empty = no crash durability)")
		chunksDir    = fs.String("chunks", "", "result-chunk directory for streaming/resumable replicates (empty = disabled); in a cluster every worker must mount the same directory, the cluster's one shared-storage dependency")
		workers      = fs.Int("workers", 0, "job worker goroutines (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue-depth", 64, "max queued jobs before 429")
		runTimeout   = fs.Duration("run-timeout", 10*time.Minute, "per-job wall-clock deadline (0 = none)")
		repWorkers   = fs.Int("j", 1, "replication worker goroutines per job (0 = one per CPU)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs; unfinished ones run after the next boot (with -journal)")
		traceDir     = fs.String("trace-dir", "", "directory for the finished-trace JSONL stream (empty = ring buffer only)")
		traceCap     = fs.Int("trace-cap", obs.DefaultCapacity, "how many recent traces /v1/traces retains")
		logFormat    = fs.String("log-format", "text", "log output format: text or json")
		logLevel     = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		debugEps     = fs.Bool("debug-endpoints", true, "serve /debug/pprof and /debug/vars (disable when exposed to untrusted networks)")
		version      = fs.Bool("version", false, "print build identity and exit")

		// Cluster mode: register with a temprivgw gateway and heartbeat so
		// the gateway shards jobs here by fingerprint and hands our jobs to
		// a ring successor if this process dies. The successor answers a
		// finished job from the replica this worker pushed it, and an
		// unfinished one by resuming from the shared -chunks directory,
		// so workers in one cluster share -chunks while keeping per-worker
		// -cache and -journal.
		clusterRegistry  = fs.String("cluster-registry", "", "gateway base URL to register with (empty = standalone)")
		clusterID        = fs.String("cluster-id", "", "stable worker ID within the cluster (required with -cluster-registry)")
		clusterURL       = fs.String("cluster-url", "", "advertised base URL for this worker (default http://<listen addr>)")
		clusterCapacity  = fs.Int("cluster-capacity", 0, "advertised capacity (default: -workers)")
		clusterHeartbeat = fs.Duration("cluster-heartbeat", 0, "heartbeat interval (0 = a third of the granted lease TTL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("temprivd"))
		return nil
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *traceCap < 1 {
		return fmt.Errorf("-trace-cap must be >= 1, got %d", *traceCap)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *repWorkers == 0 {
		*repWorkers = runtime.GOMAXPROCS(0)
	}
	if *workers < 1 || *queueDepth < 1 || *repWorkers < 0 {
		return fmt.Errorf("-workers, -queue-depth and -j must be >= 1 (or 0 for auto)")
	}
	if *runTimeout < 0 {
		return fmt.Errorf("-run-timeout must be >= 0, got %v", *runTimeout)
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *clusterRegistry != "" && *clusterID == "" {
		return fmt.Errorf("-cluster-registry requires -cluster-id")
	}
	if *clusterRegistry == "" && *clusterID != "" {
		return fmt.Errorf("-cluster-id requires -cluster-registry")
	}

	reg := telemetry.NewRegistry()
	buildinfo.Register(reg)

	// Tracing is always on: the flight-recorder ring is cheap, and a crash
	// investigation is exactly when the recent traces matter. -trace-dir
	// additionally streams every finished trace to an append-only JSONL
	// file that survives the process.
	traceOpts := obs.Options{Capacity: *traceCap}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("creating trace dir: %w", err)
		}
		f, err := os.OpenFile(filepath.Join(*traceDir, "traces.jsonl"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening trace stream: %w", err)
		}
		defer f.Close()
		traceOpts.Sink = f
	}
	tracer := obs.New(traceOpts)

	// Two latency objectives share the span clock: every API request is
	// fast, and cache hits specifically answer near-instantly (a cached
	// result that takes as long as a fresh run means the cache is sick).
	requestSLO, err := obs.NewSLO(reg, obs.SLOOptions{
		Name: "request", Objective: 0.99, Threshold: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	cachedSLO, err := obs.NewSLO(reg, obs.SLOOptions{
		Name: "cached_result", Objective: 0.99, Threshold: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	var cache *resultcache.Cache
	if *cacheDir != "" {
		maxBytes := *cacheMaxMB
		if maxBytes > 0 {
			maxBytes <<= 20
		}
		quarantined := reg.Counter("temprivd_cache_quarantined_total")
		cacheIO := reg.Counter("temprivd_cache_io_errors_total")
		breakerGauge := reg.Gauge("temprivd_cache_breaker_open")
		var err error
		cache, err = resultcache.OpenConfig(resultcache.Config{
			Dir:      *cacheDir,
			MaxBytes: maxBytes,
			Hooks: resultcache.Hooks{
				Quarantine: func(string) { quarantined.Inc() },
				IOError:    func(error) { cacheIO.Inc() },
				BreakerChange: func(_, to resultcache.BreakerState) {
					if to == resultcache.BreakerOpen {
						breakerGauge.Set(1)
					} else {
						breakerGauge.Set(0)
					}
				},
			},
		})
		if err != nil {
			return err
		}
	}

	// Open the journal and replay whatever the last process life left
	// behind, before the queue exists and before the listener accepts.
	var journal *jobstore.Journal
	var restored []jobs.RestoredJob
	if *journalDir != "" {
		journalErrs := reg.Counter("temprivd_journal_append_errors_total")
		var err error
		journal, err = jobstore.Open(*journalDir, jobstore.Options{
			OnAppendError: func(error) { journalErrs.Inc() },
		})
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		defer journal.Close()
		var skipped int
		for _, rj := range journal.Jobs() {
			spec, err := scenario.Parse(rj.SpecJSON)
			if err != nil {
				// The spec validated when it was accepted; a journal entry
				// that no longer parses is damage — drop it rather than
				// refuse to boot.
				skipped++
				continue
			}
			restored = append(restored, jobs.RestoredJob{
				ID: rj.ID, Spec: spec, Fingerprint: rj.Fingerprint, Origin: rj.Origin,
				State: rj.State, Attempts: rj.Attempt, CacheHit: rj.CacheHit,
				Error: rj.Error, Submitted: rj.Submitted, Finished: rj.Finished,
			})
		}
		st := journal.Stats()
		reg.Gauge("temprivd_journal_replayed_jobs").Set(float64(len(restored)))
		reg.Gauge("temprivd_journal_corrupt_lines").Set(float64(st.CorruptLines + skipped))
	}

	opts := jobs.Options{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		RunTimeout: *runTimeout,
		Restore:    restored,
		Log:        log,
	}
	if journal != nil {
		// Assigned only when non-nil: a typed-nil JournalSink would pass
		// the queue's interface check and then panic on use.
		opts.Journal = journal
	}
	var chunks *resultstream.Store
	if *chunksDir != "" {
		var err error
		chunks, err = resultstream.Open(*chunksDir, resultstream.Options{})
		if err != nil {
			return fmt.Errorf("opening chunk store: %w", err)
		}
	}

	// In cluster mode the heartbeat responses carry the membership list;
	// the worker mirrors it into a local ring so the API can flag
	// misdirected submissions (advisory — they still run here).
	var clusterRing atomic.Pointer[ring.Ring]
	var clusterOwns func(fp string) (string, bool)
	var peerStore *peering.Store
	var replicator *peering.Replicator
	if *clusterRegistry != "" {
		clusterOwns = func(fp string) (string, bool) {
			r := clusterRing.Load()
			if r == nil || r.Len() == 0 {
				return "", false
			}
			return r.Owner(fp)
		}

		// Result peering: hold replicas peers push to us, and push every
		// result we compute or adopt from a replica to our ring successor
		// (write-behind, retried); cache hits are not pushed again.
		// If this process dies, the gateway re-dispatches our jobs to that
		// successor, whose runner answers from the replica with zero
		// recompute. TEMPRIV_CHAOS optionally injects partitions/latency
		// into the worker→worker replication path for fault drills.
		peerStore = peering.NewStore(peering.StoreOptions{})
		peerClient := &http.Client{Timeout: 10 * time.Second}
		if spec := os.Getenv("TEMPRIV_CHAOS"); spec != "" {
			rt, err := chaostransport.Wrap(http.DefaultTransport, spec)
			if err != nil {
				return fmt.Errorf("TEMPRIV_CHAOS: %w", err)
			}
			peerClient.Transport = rt
			log.Warn("chaos transport armed on peer replication", "spec", spec)
		}
		replicator = peering.NewReplicator(peering.ReplicatorOptions{
			SelfID:    *clusterID,
			Client:    peerClient,
			Log:       log,
			Telemetry: reg,
		})
		opts.OnDone = offerReplicas(replicator.Offer)
		go replicator.Run(ctx)
	}

	runner := server.NewRunner(server.RunnerConfig{
		Cache:            cache,
		Registry:         reg,
		ReplicateWorkers: *repWorkers,
		Chunks:           chunks,
		Peers:            peerStore,
		CachedResultSLO:  cachedSLO,
	})
	queue := jobs.New(runner, opts)

	api := server.New(server.Config{
		Queue:                 queue,
		Cache:                 cache,
		Chunks:                chunks,
		Registry:              reg,
		Tracer:                tracer,
		SLOs:                  obs.SLOSet{requestSLO, cachedSLO},
		RequestSLO:            requestSLO,
		Log:                   log,
		DisableDebugEndpoints: !*debugEps,
		ClusterID:             *clusterID,
		ClusterOwns:           clusterOwns,
		Peers:                 peerStore,
	})
	api.SetReady(server.ReadyReplaying)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: api}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.LogAttrs(ctx, slog.LevelInfo, "temprivd listening",
		slog.String("addr", "http://"+ln.Addr().String()),
		slog.Int("workers", *workers),
		slog.String("cache", dirLabel(*cacheDir)),
		slog.String("journal", dirLabel(*journalDir)),
		slog.String("chunks", dirLabel(*chunksDir)),
		slog.Int("restored", len(restored)))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Join the cluster once the listener is up (the advertised URL must be
	// reachable before the gateway can route to it). The heartbeat loop
	// retries through gateway outages and deregisters on shutdown.
	if *clusterRegistry != "" {
		selfURL := *clusterURL
		if selfURL == "" {
			selfURL = "http://" + ln.Addr().String()
		}
		capacity := *clusterCapacity
		if capacity <= 0 {
			capacity = *workers
		}
		beats := reg.Counter("tempriv_cluster_heartbeats_total")
		beatErrs := reg.Counter("tempriv_cluster_heartbeat_errors_total")
		epochGauge := reg.Gauge("tempriv_cluster_epoch")
		client, err := registry.NewClient(*clusterRegistry, registry.Worker{
			ID: *clusterID, URL: selfURL, Capacity: capacity,
		}, registry.ClientOptions{
			Interval: *clusterHeartbeat,
			OnMembers: func(ws []registry.Worker, epoch uint64) {
				clusterRing.Store(ring.New(registry.IDs(ws)))
				epochGauge.Set(float64(epoch))
				if replicator != nil {
					replicator.SetMembers(ws)
				}
			},
			OnHeartbeat: func() { beats.Inc() },
			OnError: func(err error) {
				beatErrs.Inc()
				log.Warn("cluster heartbeat failed", "registry", *clusterRegistry, "error", err)
			},
		})
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		go client.Run(ctx)
		log.Info("cluster mode enabled", "registry", *clusterRegistry,
			"id", *clusterID, "url", selfURL, "capacity", capacity)
	}

	// Finish the replay phase while already listening (so probes can watch
	// it): compact the journal down to live state, then go ready.
	if testHookReplaying != nil {
		testHookReplaying()
	}
	if journal != nil {
		if err := journal.Compact(); err != nil {
			// Compaction is an optimization; a sick disk must not stop boot.
			log.Warn("journal compaction failed", "error", err)
		}
	}
	api.SetReady(server.ReadyServing)

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: go not-ready, stop accepting submissions, let
	// in-flight jobs finish (bounded), close live event streams, then close
	// the HTTP side — /v1/jobs/{id} stays queryable during the drain window.
	log.Info("temprivd draining", "timeout", *drainTimeout)
	api.SetReady(server.ReadyDraining)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := queue.Drain(drainCtx)
	api.Stop()
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		drainErr = errors.Join(drainErr, err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed by now
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return fmt.Errorf("draining: %w", drainErr)
	}
	log.Info("temprivd stopped")
	return nil
}

func dirLabel(dir string) string {
	if dir == "" {
		return "disabled"
	}
	return dir
}

// offerReplicas is the queue's OnDone hook for result peering. It passes
// offer every result this worker computed or adopted from a peer replica,
// and skips cache hits. A hit's result went to the ring successor when it
// was computed or adopted, so offering it again only repeats the POST. The
// cost: a later hit no longer refreshes a replica lost to a successor
// restart or placed under a stale ring, so if this worker then crashes,
// the new owner recomputes the job, with the same bytes.
func offerReplicas(offer func(peering.Replica)) func(jobs.Snapshot, *jobs.Result) {
	return func(snap jobs.Snapshot, res *jobs.Result) {
		if res.CacheHit {
			return
		}
		offer(peering.Replica{
			Fingerprint: snap.Fingerprint,
			TableText:   res.TableText,
			TableCSV:    res.TableCSV,
			Manifest:    res.Manifest,
		})
	}
}
