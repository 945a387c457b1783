// Command temprivgw is the cluster gateway: one public job API in front
// of a fleet of temprivd workers sharded by spec fingerprint on a
// consistent-hash ring.
//
//	temprivgw -addr localhost:7070 &
//	temprivd -addr localhost:7081 -cluster-registry http://localhost:7070 -cluster-id w1 -chunks ./chunks &
//	temprivd -addr localhost:7082 -cluster-registry http://localhost:7070 -cluster-id w2 -chunks ./chunks &
//
// Workers register and heartbeat against POST /v1/cluster/register; the
// gateway expires silent workers after the lease TTL and re-dispatches
// every job they held, finished or not, to the ring successor
// (X-Tempriv-Origin: handoff, same X-Trace-Id). That is the one handoff
// path. The successor answers a finished job from the replica the dead
// worker pushed it (zero recompute) and resumes an unfinished one from
// the replicate chunks in the -chunks directory every worker shares.
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id} (+ /result with
// ?partial=1, /events with synthetic seq:-1 handoff lines), DELETE
// /v1/jobs/{id}, GET /v1/cluster (membership + ring + per-worker
// health), POST /v1/cluster/register, GET /v1/cluster/workers,
// /healthz, /readyz (503 until a worker registers), /metrics
// (tempriv_cluster_* series).
//
// Partition tolerance: the gateway scores every worker from its own
// request outcomes, ejects a worker whose rolling error rate crosses the
// threshold (re-admitting it through a half-open probe), hands off the
// routes of a worker that stays ejected, and sheds submissions with
// 503 + Retry-After when every candidate is ejected, backpressured, or
// saturated past its advertised capacity.
//
// -chaos (or TEMPRIV_CHAOS) arms a deterministic fault-injecting
// transport on the gateway's worker requests for drills:
// "partition=host:port;latency=host:port:300ms;slow=host:port:50ms".
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
	"syscall"
	"time"

	"tempriv/internal/buildinfo"
	"tempriv/internal/cluster/chaostransport"
	"tempriv/internal/cluster/gateway"
	"tempriv/internal/cluster/registry"
	"tempriv/internal/obs"
	"tempriv/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "temprivgw:", err)
		os.Exit(1)
	}
}

// run starts the gateway and blocks until ctx is canceled. When ready is
// non-nil it receives the resolved listen address (tests use port 0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("temprivgw", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "localhost:7070", "listen address (port 0 picks an ephemeral port)")
		leaseTTL       = fs.Duration("lease-ttl", registry.DefaultLeaseTTL, "worker lease; a worker silent this long is dead and its jobs move")
		reconcileEvery = fs.Duration("reconcile-every", 2*time.Second, "how often to sweep leases and hand off orphaned jobs")
		submitAttempts = fs.Int("submit-attempts", 4, "max workers tried per dispatch, one POST each; a worker answering 429/503 is passed over for the next successor")
		retryAfterMax  = fs.Duration("retry-after-max", 5*time.Second, "cap on the backpressure window a worker's Retry-After opens, and on the Retry-After of the gateway's own sheds")
		ejectThreshold = fs.Float64("eject-threshold", 0, "rolling error rate that ejects a worker (0 = default 0.5)")
		ejectCooldown  = fs.Duration("eject-cooldown", 0, "wait before an ejected worker gets a half-open probe (0 = default 10s)")
		shedFactor     = fs.Float64("shed-factor", 0, "outstanding-routes-per-worker bound as a multiple of advertised capacity (0 = default 4)")
		chaos          = fs.String("chaos", os.Getenv("TEMPRIV_CHAOS"), "fault-injection spec for worker requests (default $TEMPRIV_CHAOS)")
		traceCap       = fs.Int("trace-cap", obs.DefaultCapacity, "how many recent gateway traces to retain")
		logFormat      = fs.String("log-format", "text", "log output format: text or json")
		logLevel       = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		version        = fs.Bool("version", false, "print build identity and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("temprivgw"))
		return nil
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *leaseTTL <= 0 || *reconcileEvery <= 0 {
		return fmt.Errorf("-lease-ttl and -reconcile-every must be positive")
	}
	if *submitAttempts < 1 {
		return fmt.Errorf("-submit-attempts must be >= 1, got %d", *submitAttempts)
	}

	reg := telemetry.NewRegistry()
	buildinfo.Register(reg)
	tracer := obs.New(obs.Options{Capacity: *traceCap})

	// No global timeout: /events and ?partial=1 proxies are long-lived
	// streams. -chaos wraps the transport so drills can partition or slow
	// the gateway→worker path deterministically.
	client := &http.Client{}
	if *chaos != "" {
		rt, err := chaostransport.Wrap(http.DefaultTransport, *chaos)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		client.Transport = rt
		log.Warn("chaos transport armed on worker requests", "spec", *chaos)
	}

	members := registry.New(registry.Options{LeaseTTL: *leaseTTL})
	gw := gateway.New(gateway.Config{
		Registry:       members,
		Telemetry:      reg,
		Tracer:         tracer,
		Log:            log,
		Client:         client,
		SubmitAttempts: *submitAttempts,
		RetryAfterMax:  *retryAfterMax,
		ReconcileEvery: *reconcileEvery,
		EjectThreshold: *ejectThreshold,
		EjectCooldown:  *ejectCooldown,
		ShedFactor:     *shedFactor,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: gw}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	go gw.Run(ctx)
	log.LogAttrs(ctx, slog.LevelInfo, "temprivgw listening",
		slog.String("addr", "http://"+ln.Addr().String()),
		slog.Duration("lease_ttl", *leaseTTL),
		slog.Duration("reconcile_every", *reconcileEvery))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}

	log.Info("temprivgw stopping")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-serveErr
	log.Info("temprivgw stopped")
	return nil
}
