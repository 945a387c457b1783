// Command rcadsim runs one temporal-privacy simulation and reports the
// privacy (adversary MSE), performance (latency) and buffer metrics the
// paper evaluates.
//
// Examples:
//
//	rcadsim                                     # Figure-1 topology, RCAD, 1/λ=2
//	rcadsim -policy delay-unlimited -interarrival 10
//	rcadsim -topo line -hops 15 -adversary adaptive
//	rcadsim -rate-control -target-loss 0.1      # §4 per-node µ planning
//	rcadsim -link-loss 0.1 -arq                 # lossy links, per-hop ARQ
//	rcadsim -topo grid -fail 11@500 -route-repair
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tempriv"
	"tempriv/internal/buildinfo"
	"tempriv/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcadsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("rcadsim", flag.ContinueOnError)
	var (
		topoKind     = fs.String("topo", "figure1", "topology: figure1 | line | grid | random")
		hops         = fs.Int("hops", 15, "line topology: hops from source to sink")
		gridW        = fs.Int("grid-w", 10, "grid topology: width")
		gridH        = fs.Int("grid-h", 10, "grid topology: height")
		fieldNodes   = fs.Int("field-nodes", 150, "random topology: node count")
		fieldSide    = fs.Float64("field-side", 10, "random topology: field side length")
		fieldRadius  = fs.Float64("field-radius", 1.6, "random topology: radio radius")
		policyName   = fs.String("policy", "rcad", "buffering: no-delay | delay-unlimited | delay-droptail | rcad")
		interarrival = fs.Float64("interarrival", 2, "packet interarrival time 1/λ per source")
		packets      = fs.Int("packets", 1000, "packets per source")
		meanDelay    = fs.Float64("mean-delay", 30, "mean per-hop buffering delay 1/µ")
		capacity     = fs.Int("capacity", 10, "buffer slots k")
		victimName   = fs.String("victim", "shortest-remaining", "RCAD victim rule: shortest-remaining | longest-remaining | oldest | random")
		distName     = fs.String("delay-dist", "exponential", "delay distribution: exponential | uniform | constant | pareto")
		advName      = fs.String("adversary", "baseline", "adversary: baseline | adaptive | path-aware")
		threshold    = fs.Float64("threshold", 0.1, "adaptive adversary Erlang-loss threshold")
		tau          = fs.Float64("tau", 1, "per-hop transmission delay τ")
		seed         = fs.Uint64("seed", 1, "random seed")
		replicate    = fs.Int("replicate", 1, "run seeds seed..seed+n-1 through one reused engine and append a replicate summary")
		sealed       = fs.Bool("seal", false, "encrypt payloads end-to-end (AES-CTR+HMAC)")
		rateControl  = fs.Bool("rate-control", false, "enable the §4 per-node delay planner")
		targetLoss   = fs.Float64("target-loss", 0.1, "rate controller's Erlang-loss target α")
		traceFile    = fs.String("trace", "", "write per-packet lifecycle events as JSON Lines to this file")
		linkLoss     = fs.Float64("link-loss", 0, "per-link frame-loss probability p (Bernoulli, or good-state under -burst)")
		burst        = fs.Bool("burst", false, "use the Gilbert–Elliott burst-loss channel")
		burstLoss    = fs.Float64("burst-loss", 0.5, "bad-state frame-loss probability (with -burst)")
		burstLen     = fs.Float64("burst-len", 0, "mean burst length in transmissions (with -burst; 0 = default)")
		goodRun      = fs.Float64("good-run", 0, "mean good-state run in transmissions (with -burst; 0 = default)")
		ackLoss      = fs.Float64("ack-loss", 0, "ACK-loss probability (requires -arq; provokes duplicates)")
		arq          = fs.Bool("arq", false, "enable link-layer ARQ (per-hop ACK + retransmission)")
		arqRetries   = fs.Int("arq-retries", 3, "ARQ retransmission budget per hop")
		arqTimeout   = fs.Float64("arq-timeout", 0, "ARQ retransmission timeout (0 = 3τ)")
		arqBackoff   = fs.Float64("arq-backoff", 0, "ARQ timeout backoff multiplier (0 = 2)")
		failSpec     = fs.String("fail", "", "node failures as node@time[,node@time...] e.g. 11@500,14@800")
		routeRepair  = fs.Bool("route-repair", false, "rebuild routes around failed nodes and re-home their buffers")
		telemetryOut = fs.String("telemetry", "", "stream sim-time queue-state samples as JSON Lines to this file")
		sampleEvery  = fs.Float64("sample-every", 1, "sim-time units between telemetry samples (with -telemetry/-prom)")
		promOut      = fs.String("prom", "", "rewrite this file with a Prometheus text snapshot on every sample")
		pprofAddr    = fs.String("pprof-addr", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. localhost:6060)")
		manifestOut  = fs.String("manifest", "", "write the run manifest as JSON to this file")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		version      = fs.Bool("version", false, "print build identity and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("rcadsim"))
		return nil
	}

	// Flag validation happens before any output or side effect: bad flags
	// produce one stderr diagnostic and a non-zero exit, never a partial
	// stdout report or a half-created artifact file.
	if err := validateFlags(flagValues{
		policy: *policyName, adversary: *advName, interarrival: *interarrival, packets: *packets,
		meanDelay: *meanDelay, capacity: *capacity, tau: *tau,
		threshold: *threshold, targetLoss: *targetLoss,
		hops: *hops, gridW: *gridW, gridH: *gridH,
		fieldNodes: *fieldNodes, fieldSide: *fieldSide, fieldRadius: *fieldRadius,
		linkLoss: *linkLoss, burstLoss: *burstLoss, ackLoss: *ackLoss,
		burstLen: *burstLen, goodRun: *goodRun,
		arq: *arq, arqRetries: *arqRetries, arqTimeout: *arqTimeout, arqBackoff: *arqBackoff,
		sampleEvery: *sampleEvery,
	}); err != nil {
		return err
	}
	if *replicate < 1 {
		return fmt.Errorf("-replicate must be >= 1, got %d", *replicate)
	}
	if *replicate > 1 && (*traceFile != "" || *telemetryOut != "" || *promOut != "") {
		return errors.New("-replicate > 1 cannot be combined with -trace, -telemetry or -prom (observers would interleave runs)")
	}

	// Buffered outputs are flushed and closed on every exit path, error
	// returns included; their errors surface rather than vanish. Cleanups
	// run in reverse registration order, so a writer's flush always
	// precedes its file's close.
	var cleanups []func() error
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			err = errors.Join(err, cleanups[i]())
		}
	}()

	// Profiles are registered first so they cover everything after flag
	// validation and are flushed on every exit path, error returns included.
	profCleanups, err := profiling.Start(*cpuProfile, *memProfile)
	cleanups = append(cleanups, profCleanups...)
	if err != nil {
		return err
	}

	topo, sources, err := buildTopology(*topoKind, *hops, *gridW, *gridH, *fieldNodes, *fieldSide, *fieldRadius, *seed)
	if err != nil {
		return err
	}

	policy, err := tempriv.PolicyByName(*policyName)
	if err != nil {
		return fmt.Errorf("unknown policy %q", *policyName)
	}
	victim, err := tempriv.VictimByName(*victimName)
	if err != nil {
		return err
	}
	var dist tempriv.DelayDistribution
	if policy != tempriv.PolicyForward {
		dist, err = tempriv.DelayByName(*distName, *meanDelay)
		if err != nil {
			return err
		}
	}
	proc, err := tempriv.PeriodicTraffic(*interarrival)
	if err != nil {
		return err
	}

	cfg := tempriv.Config{
		Topology:          topo,
		Policy:            policy,
		Delay:             dist,
		Capacity:          *capacity,
		Victim:            victim,
		TransmissionDelay: *tau,
		Seed:              *seed,
		Seal:              *sealed,
	}
	for _, s := range sources {
		cfg.Sources = append(cfg.Sources, tempriv.Source{Node: s, Process: proc, Count: *packets})
	}
	if *rateControl {
		cfg.RateControl = &tempriv.RateControl{TargetLoss: *targetLoss, Smoothing: 0.3}
	}
	if *linkLoss > 0 || *burst || *ackLoss > 0 {
		cfg.Channel = &tempriv.ChannelConfig{
			LossP:        *linkLoss,
			Burst:        *burst,
			BurstLossP:   *burstLoss,
			MeanGoodRun:  *goodRun,
			MeanBurstLen: *burstLen,
			AckLossP:     *ackLoss,
		}
	}
	if *arq {
		cfg.ARQ = &tempriv.ARQConfig{MaxRetries: *arqRetries, Timeout: *arqTimeout, Backoff: *arqBackoff}
	}
	failures, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	cfg.NodeFailures = failures
	cfg.RouteRepair = *routeRepair
	var tracer *tempriv.JSONLTracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		bw := bufio.NewWriter(f)
		cleanups = append(cleanups, f.Close, bw.Flush)
		tracer, err = tempriv.NewJSONLTracer(bw)
		if err != nil {
			return err
		}
		cfg.Tracer = tracer
	}

	// Any telemetry flag turns on the live registry; the sampler needs an
	// emitter too.
	var reg *tempriv.TelemetryRegistry
	if *telemetryOut != "" || *promOut != "" || *pprofAddr != "" {
		reg = tempriv.NewTelemetryRegistry()
	}
	var emitters []tempriv.TelemetryEmitter
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			return fmt.Errorf("creating telemetry file: %w", err)
		}
		em, err := tempriv.NewJSONLEmitter(f)
		if err != nil {
			return err
		}
		cleanups = append(cleanups, f.Close, em.Close)
		emitters = append(emitters, em)
	}
	var promEm tempriv.TelemetryEmitter
	if *promOut != "" {
		promEm, err = tempriv.NewPromFileEmitter(reg, *promOut)
		if err != nil {
			return err
		}
		emitters = append(emitters, promEm)
	}
	if reg != nil {
		tcfg := &tempriv.TelemetryConfig{Registry: reg, SampleHeap: true}
		if len(emitters) > 0 {
			tcfg.SampleEvery = *sampleEvery
			tcfg.Emitter = tempriv.MultiTelemetryEmitter(emitters...)
		}
		cfg.Telemetry = tcfg
	}
	if *pprofAddr != "" {
		srv, err := startDebugServer(*pprofAddr, reg)
		if err != nil {
			return err
		}
		cleanups = append(cleanups, srv.Close)
		fmt.Printf("debug server listening on http://%s (pprof, /debug/vars, /metrics)\n", srv.Addr())
	}

	// All seeds run through one engine cache, so topology, routes,
	// buffers, scheduler and packet arena are built once. Each run's result
	// is borrowed: it is scored, printed and folded into the replicate
	// summary inside its callback. Engine reuse is byte-identical to fresh
	// runs, so the base seed's report does not depend on -replicate; the
	// extra seeds only feed the replicate summary.
	cache := tempriv.NewEngineCache()
	summary := newReplicateSummary(sources)
	var est tempriv.Estimator
	var manifest tempriv.RunManifest
	err = tempriv.RunBorrowed(cache, cfg, func(res *tempriv.Result) error {
		var err error
		est, err = buildAdversary(*advName, topo, *tau, *meanDelay, *capacity, *threshold, policy)
		if err != nil {
			return err
		}
		perFlow, err := tempriv.ScoreAdversaryPerFlow(est, res)
		if err != nil {
			return err
		}
		printReport(res, sources, perFlow, est.Name())
		summary.fold(res, perFlow)
		manifest = *res.Manifest
		return nil
	})
	if err != nil {
		return err
	}
	if promEm != nil {
		// The sampler's last tick falls at or before the run's last event,
		// so the snapshot it left can miss the final deliveries. Rewrite it
		// once with the final counters and the run's sim time.
		reg.Gauge("tempriv_sim_time").Set(manifest.SimDuration)
		if err := promEm.Emit(tempriv.TelemetrySample{At: manifest.SimDuration}); err != nil {
			return err
		}
	}
	if *replicate > 1 {
		for i := 1; i < *replicate; i++ {
			c := cfg
			c.Seed = *seed + uint64(i)
			err := tempriv.RunBorrowed(cache, c, func(res *tempriv.Result) error {
				perFlow, err := tempriv.ScoreAdversaryPerFlow(est, res)
				if err != nil {
					return err
				}
				summary.fold(res, perFlow)
				return nil
			})
			if err != nil {
				return fmt.Errorf("replicate seed %d: %w", c.Seed, err)
			}
		}
		summary.print(est.Name(), *seed, *replicate)
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("\nlifecycle trace written to %s\n", *traceFile)
	}
	if *telemetryOut != "" {
		fmt.Printf("telemetry time series written to %s\n", *telemetryOut)
	}
	if *manifestOut != "" {
		if err := manifest.WriteJSON(*manifestOut); err != nil {
			return err
		}
	}
	// Stdout stays byte-identical across identical-flag runs, so only the
	// deterministic manifest fields are printed; wall-clock and heap live in
	// the -manifest file.
	fmt.Printf("\nrun manifest: fingerprint=%s seed=%d events=%d deliveries=%d sim-duration=%g\n",
		manifest.ConfigFingerprint, manifest.Seed, manifest.Events, manifest.Deliveries, manifest.SimDuration)
	return nil
}

// maxPlacementAttempts bounds how many consecutive seeds the random-topology
// builder tries before concluding the requested density is unworkable.
const maxPlacementAttempts = 10

// flagValues carries the numeric flags through validation.
type flagValues struct {
	policy, adversary                   string
	interarrival                        float64
	packets, capacity                   int
	meanDelay, tau, threshold           float64
	targetLoss                          float64
	hops, gridW, gridH, fieldNodes      int
	fieldSide, fieldRadius              float64
	linkLoss, burstLoss, ackLoss        float64
	burstLen, goodRun                   float64
	arq                                 bool
	arqRetries                          int
	arqTimeout, arqBackoff, sampleEvery float64
}

// validateFlags range-checks every numeric flag and checks the adversary
// name up front, so misuse fails before the simulator, the trace file or the
// debug server produce any output.
func validateFlags(v flagValues) error {
	switch v.adversary {
	case "baseline", "adaptive", "path-aware":
	default:
		return fmt.Errorf("unknown adversary %q", v.adversary)
	}
	if !(v.interarrival > 0) {
		return fmt.Errorf("-interarrival must be > 0, got %v", v.interarrival)
	}
	if v.packets < 1 {
		return fmt.Errorf("-packets must be >= 1, got %d", v.packets)
	}
	if v.policy != "no-delay" && !(v.meanDelay > 0) {
		return fmt.Errorf("-mean-delay must be > 0 for policy %q, got %v", v.policy, v.meanDelay)
	}
	if v.capacity < 1 {
		return fmt.Errorf("-capacity must be >= 1, got %d", v.capacity)
	}
	if !(v.tau > 0) {
		return fmt.Errorf("-tau must be > 0, got %v", v.tau)
	}
	if !(v.threshold > 0) || v.threshold >= 1 {
		return fmt.Errorf("-threshold must be in (0, 1), got %v", v.threshold)
	}
	if !(v.targetLoss > 0) || v.targetLoss >= 1 {
		return fmt.Errorf("-target-loss must be in (0, 1), got %v", v.targetLoss)
	}
	if v.hops < 1 {
		return fmt.Errorf("-hops must be >= 1, got %d", v.hops)
	}
	if v.gridW < 2 || v.gridH < 2 {
		return fmt.Errorf("-grid-w and -grid-h must be >= 2, got %dx%d", v.gridW, v.gridH)
	}
	if v.fieldNodes < 2 {
		return fmt.Errorf("-field-nodes must be >= 2, got %d", v.fieldNodes)
	}
	if !(v.fieldSide > 0) || !(v.fieldRadius > 0) {
		return fmt.Errorf("-field-side and -field-radius must be > 0, got %v and %v", v.fieldSide, v.fieldRadius)
	}
	for name, p := range map[string]float64{
		"-link-loss": v.linkLoss, "-burst-loss": v.burstLoss, "-ack-loss": v.ackLoss,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("%s must be in [0, 1], got %v", name, p)
		}
	}
	if v.ackLoss > 0 && !v.arq {
		return fmt.Errorf("-ack-loss requires -arq (ACKs only exist with ARQ)")
	}
	if v.burstLen < 0 || v.goodRun < 0 {
		return fmt.Errorf("-burst-len and -good-run must be >= 0, got %v and %v", v.burstLen, v.goodRun)
	}
	if v.arqRetries < 0 {
		return fmt.Errorf("-arq-retries must be >= 0, got %d", v.arqRetries)
	}
	if v.arqTimeout < 0 {
		return fmt.Errorf("-arq-timeout must be >= 0, got %v", v.arqTimeout)
	}
	if v.arqBackoff != 0 && v.arqBackoff < 1 {
		return fmt.Errorf("-arq-backoff must be 0 (default) or >= 1, got %v", v.arqBackoff)
	}
	if !(v.sampleEvery > 0) {
		return fmt.Errorf("-sample-every must be > 0, got %v", v.sampleEvery)
	}
	return nil
}

// parseFailures parses -fail's node@time list into failure injections.
func parseFailures(spec string) ([]tempriv.NodeFailure, error) {
	if spec == "" {
		return nil, nil
	}
	var out []tempriv.NodeFailure
	for _, part := range strings.Split(spec, ",") {
		node, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad -fail entry %q, want node@time", part)
		}
		id, err := strconv.ParseUint(node, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad -fail node in %q: %w", part, err)
		}
		t, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fail time in %q: %w", part, err)
		}
		out = append(out, tempriv.NodeFailure{Node: tempriv.NodeID(id), At: t})
	}
	return out, nil
}

func buildTopology(kind string, hops, w, h, fieldNodes int, fieldSide, fieldRadius float64, seed uint64) (*tempriv.Topology, []tempriv.NodeID, error) {
	switch kind {
	case "figure1":
		return tempriv.Figure1Topology()
	case "line":
		topo, err := tempriv.NewLineTopology(hops)
		if err != nil {
			return nil, nil, err
		}
		return topo, topo.Sources(), nil
	case "grid":
		topo, err := tempriv.NewGridTopology(w, h)
		if err != nil {
			return nil, nil, err
		}
		// Use the far corner as the single source.
		far := tempriv.GridNodeID(w, w-1, h-1)
		if err := topo.MarkSource(far); err != nil {
			return nil, nil, err
		}
		return topo, topo.Sources(), nil
	case "random":
		// Retry a few placements: sparse samples can be disconnected. The
		// bound keeps a hopeless density (radius far below the connectivity
		// threshold) from looping forever on ever-new seeds.
		var topo *tempriv.Topology
		var err error
		for attempt := 0; attempt < maxPlacementAttempts; attempt++ {
			topo, err = tempriv.NewRandomGeometricTopology(fieldNodes, fieldSide, fieldRadius, seed+uint64(attempt))
			if err == nil {
				break
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf(
				"random field stayed disconnected after %d placements (%d nodes, side %g, radius %g — raise -field-radius or -field-nodes): %w",
				maxPlacementAttempts, fieldNodes, fieldSide, fieldRadius, err)
		}
		// The node farthest from the sink becomes the source.
		far := tempriv.NodeID(0)
		best := -1.0
		for _, id := range topo.Nodes() {
			p, err := topo.PositionOf(id)
			if err != nil {
				return nil, nil, err
			}
			if d := p.Distance(tempriv.Position{}); d > best {
				best, far = d, id
			}
		}
		if err := topo.MarkSource(far); err != nil {
			return nil, nil, err
		}
		return topo, topo.Sources(), nil
	default:
		return nil, nil, fmt.Errorf("unknown topology %q", kind)
	}
}

func buildAdversary(name string, topo *tempriv.Topology, tau, meanDelay float64, capacity int, threshold float64, policy tempriv.PolicyKind) (tempriv.Estimator, error) {
	known := meanDelay
	if policy == tempriv.PolicyForward {
		known = 0 // the adversary knows there is no buffering delay
	}
	switch name {
	case "baseline":
		return tempriv.NewBaselineAdversary(tau, known)
	case "adaptive":
		if known == 0 {
			return tempriv.NewBaselineAdversary(tau, 0)
		}
		return tempriv.NewAdaptiveAdversary(tau, known, capacity, threshold)
	case "path-aware":
		if known == 0 {
			return tempriv.NewBaselineAdversary(tau, 0)
		}
		paths, err := tempriv.FlowPaths(topo)
		if err != nil {
			return nil, err
		}
		return tempriv.NewPathAwareAdversary(tau, known, capacity, threshold, paths)
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}

func printReport(res *tempriv.Result, sources []tempriv.NodeID, perFlow map[tempriv.NodeID]*tempriv.MSE, advName string) {
	fmt.Printf("simulated %.1f time units, %d events, %d deliveries\n\n",
		res.Duration, res.Events, len(res.Deliveries))

	fmt.Printf("%-8s %-5s %-8s %-9s %-8s %-10s %-10s %-12s\n",
		"flow", "hops", "created", "delivered", "dropped", "lat-mean", "lat-p95", advName+"-MSE")
	for i, s := range sources {
		f := res.Flows[s]
		mse := 0.0
		if m, ok := perFlow[s]; ok {
			mse = m.Value()
		}
		fmt.Printf("S%-7d %-5d %-8d %-9d %-8d %-10.1f %-10.1f %-12.4g\n",
			i+1, f.HopCount, f.Created, f.Delivered, f.Dropped(),
			f.Latency.Mean, f.Latency.P95, mse)
	}

	ids := make([]tempriv.NodeID, 0, len(res.Nodes))
	for id := range res.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var busiest *tempriv.NodeStats
	var drops, preempts uint64
	for _, id := range ids {
		ns := res.Nodes[id]
		drops += ns.Drops
		preempts += ns.Preemptions
		if busiest == nil || ns.AvgOccupancy > busiest.AvgOccupancy {
			busiest = ns
		}
	}
	fmt.Printf("\nnetwork: %d buffering nodes, %d drops, %d preemptions\n", len(ids), drops, preempts)
	if busiest != nil {
		fmt.Printf("busiest node: %v (%d hops from sink) avg occupancy %.2f, peak %.0f, mean hold %.1f\n",
			busiest.ID, busiest.HopsToSink, busiest.AvgOccupancy, busiest.MaxOccupancy, busiest.MeanHeldDelay)
	}
	if res.LinkDrops > 0 || res.Retransmissions > 0 || res.DuplicatesSuppressed > 0 {
		fmt.Printf("link layer: delivery ratio %.4f, %d retransmissions, %d link drops, %d duplicates suppressed\n",
			res.DeliveryRatio(), res.Retransmissions, res.LinkDrops, res.DuplicatesSuppressed)
	}
	if res.LostToFailures > 0 || res.Reroutes > 0 {
		fmt.Printf("failures: %d packets lost at dead nodes, %d parents rerouted\n",
			res.LostToFailures, res.Reroutes)
	}
	if res.SealFailures > 0 {
		fmt.Printf("WARNING: %d payload authentication failures\n", res.SealFailures)
	}
}

// meanStd is a Welford accumulator for the replicate summary.
type meanStd struct {
	n    int
	mean float64
	m2   float64
}

func (w *meanStd) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *meanStd) std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// replicateSummary accumulates, across seeds, the per-flow mean ± sample
// stddev of the headline metrics.
type replicateSummary struct {
	sources            []tempriv.NodeID
	lat, mse           []meanStd
	delivered, dropped meanStd
}

func newReplicateSummary(sources []tempriv.NodeID) *replicateSummary {
	return &replicateSummary{
		sources: sources,
		lat:     make([]meanStd, len(sources)),
		mse:     make([]meanStd, len(sources)),
	}
}

// fold adds one seed's run, scored per flow against the adversary.
func (s *replicateSummary) fold(res *tempriv.Result, perFlow map[tempriv.NodeID]*tempriv.MSE) {
	var del, drop float64
	for i, src := range s.sources {
		f := res.Flows[src]
		s.lat[i].add(f.Latency.Mean)
		if m, ok := perFlow[src]; ok {
			s.mse[i].add(m.Value())
		}
		del += float64(f.Delivered)
		drop += float64(f.Dropped())
	}
	s.delivered.add(del)
	s.dropped.add(drop)
}

// print writes the summary of the n seeds base..base+n-1.
func (s *replicateSummary) print(advName string, base uint64, n int) {
	fmt.Printf("\nreplicates: %d seeds (%d..%d), one engine reused across runs\n", n, base, base+uint64(n)-1)
	for i := range s.sources {
		fmt.Printf("S%-7d lat-mean %.1f ± %.1f   %s-MSE %.4g ± %.3g\n",
			i+1, s.lat[i].mean, s.lat[i].std(), advName, s.mse[i].mean, s.mse[i].std())
	}
	fmt.Printf("totals: delivered %.1f ± %.1f, dropped %.1f ± %.1f per run\n",
		s.delivered.mean, s.delivered.std(), s.dropped.mean, s.dropped.std())
}
