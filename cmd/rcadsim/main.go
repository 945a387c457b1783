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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tempriv"
	"tempriv/internal/buildinfo"
	"tempriv/internal/profiling"
	"tempriv/internal/scenario"
	"tempriv/internal/telemetry"
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
	// stdout report or a half-created artifact file. The flags describe a
	// scenario spec, which is normalized and compiled before anything else
	// happens; only -replicate and the observer flags are rcadsim's own.
	if *replicate < 1 {
		return fmt.Errorf("-replicate must be >= 1, got %d", *replicate)
	}
	if *replicate > 1 && (*traceFile != "" || *telemetryOut != "" || *promOut != "") {
		return errors.New("-replicate > 1 cannot be combined with -trace, -telemetry or -prom (observers would interleave runs)")
	}
	if !(*sampleEvery > 0) {
		return fmt.Errorf("-sample-every must be > 0, got %v", *sampleEvery)
	}
	// The spec reads a zero as its default, so a flag set to 0 would run
	// the default instead; it is rejected.
	for _, f := range []struct {
		name string
		zero bool
	}{
		{"hops", *hops == 0}, {"grid-w", *gridW == 0}, {"grid-h", *gridH == 0},
		{"field-nodes", *fieldNodes == 0}, {"field-side", *fieldSide == 0}, {"field-radius", *fieldRadius == 0},
		{"interarrival", *interarrival == 0}, {"packets", *packets == 0}, {"capacity", *capacity == 0},
		{"mean-delay", *meanDelay == 0 && *policyName != "no-delay"}, {"tau", *tau == 0},
		{"threshold", *threshold == 0}, {"seed", *seed == 0}, {"arq-retries", *arqRetries == 0},
	} {
		if f.zero {
			return fmt.Errorf("-%s must not be 0", f.name)
		}
	}
	// Each flag group is range-checked by the spec part that owns it, also
	// where the chosen topology or mode ignores the group.
	for _, part := range []interface{ Validate() error }{
		scenario.TopologySpec{Kind: "line", Hops: *hops},
		scenario.TopologySpec{Kind: "grid", Width: *gridW, Height: *gridH},
		scenario.TopologySpec{Kind: "random", Nodes: *fieldNodes, Side: *fieldSide, Radius: *fieldRadius},
		scenario.RateControlSpec{TargetLoss: *targetLoss},
		scenario.ARQSpec{MaxRetries: *arqRetries, Timeout: *arqTimeout, Backoff: *arqBackoff},
		scenario.ChannelSpec{LossP: *linkLoss, Burst: true, BurstLossP: *burstLoss, MeanGoodRun: *goodRun, MeanBurstLen: *burstLen, AckLossP: *ackLoss},
	} {
		if err := part.Validate(); err != nil {
			return err
		}
	}
	failures, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}

	sim := &scenario.SimulationSpec{
		Topology:   scenario.TopologySpec{Kind: *topoKind},
		Traffic:    scenario.TrafficSpec{Kind: "periodic", Interval: *interarrival},
		Policy:     *policyName,
		Capacity:   *capacity,
		Victim:     *victimName,
		Tau:        *tau,
		Seed:       *seed,
		Packets:    *packets,
		Seal:       *sealed,
		Adversary:  *advName,
		Threshold:  *threshold,
		Failures:   failures,
		Replicates: 1, // rcadsim runs its own seeds
	}
	switch *topoKind {
	case "line":
		sim.Topology.Hops = *hops
	case "grid":
		sim.Topology.Width, sim.Topology.Height = *gridW, *gridH
	case "random":
		sim.Topology.Nodes, sim.Topology.Side, sim.Topology.Radius = *fieldNodes, *fieldSide, *fieldRadius
	}
	if *policyName != "no-delay" {
		sim.Delay = &scenario.DelaySpec{Dist: *distName, Mean: *meanDelay}
	}
	if *rateControl {
		sim.RateControl = &scenario.RateControlSpec{TargetLoss: *targetLoss}
	}
	if *linkLoss > 0 || *burst || *ackLoss > 0 {
		sim.Channel = &scenario.ChannelSpec{LossP: *linkLoss, Burst: *burst, AckLossP: *ackLoss}
		if *burst {
			sim.Channel.BurstLossP, sim.Channel.MeanGoodRun, sim.Channel.MeanBurstLen = *burstLoss, *goodRun, *burstLen
		}
	}
	if *arq {
		sim.ARQ = &scenario.ARQSpec{MaxRetries: *arqRetries, Timeout: *arqTimeout, Backoff: *arqBackoff}
	}
	if len(failures) > 0 {
		sim.RouteRepair = *routeRepair
	}
	spec, err := scenario.Spec{Version: scenario.CurrentVersion, Simulation: sim}.Normalize()
	if err != nil {
		return err
	}
	fingerprint, err := spec.Fingerprint()
	if err != nil {
		return err
	}
	compiled, err := scenario.Compile(spec.Simulation)
	if err != nil {
		return err
	}
	// The traffic is periodic, which keeps no state, so the one compiled
	// config serves every seed.
	cfg, sources := compiled.Config, compiled.Sources

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

	// Profiles are registered first so they cover everything after the
	// spec is compiled and are flushed on every exit path, error returns
	// included.
	profCleanups, err := profiling.Start(*cpuProfile, *memProfile)
	cleanups = append(cleanups, profCleanups...)
	if err != nil {
		return err
	}

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
	// emitter too. The heap readings of the samples feed the manifest's
	// peak.
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
	heap := &heapPeak{}
	if reg != nil {
		tcfg := &tempriv.TelemetryConfig{Registry: reg, SampleHeap: true}
		if len(emitters) > 0 {
			tcfg.SampleEvery = *sampleEvery
			heap.TelemetryEmitter = tempriv.MultiTelemetryEmitter(emitters...)
			tcfg.Emitter = heap
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
	// summary inside its callback, with an estimator of its own. Engine
	// reuse is byte-identical to fresh runs, so the base seed's report does
	// not depend on -replicate; the extra seeds only feed the replicate
	// summary.
	cache := tempriv.NewEngineCache()
	summary := newReplicateSummary(sources)
	var estName string
	var manifest runManifest
	start := time.Now()
	err = tempriv.RunBorrowed(cache, cfg, func(res *tempriv.Result) error {
		wall := time.Since(start).Seconds()
		manifest = runManifest{
			SpecFingerprint: fingerprint, Seed: cfg.Seed, GoVersion: runtime.Version(),
			SimDuration: res.Duration, Events: res.Events, Deliveries: len(res.Deliveries),
			WallSeconds: wall, PeakHeapBytes: max(heap.peak, telemetry.HeapAlloc()),
		}
		if wall > 0 {
			manifest.EventsPerSec = float64(res.Events) / wall
		}
		perFlow, err := score(compiled, res, &estName)
		if err != nil {
			return err
		}
		printReport(res, sources, perFlow, estName)
		summary.fold(res, perFlow)
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
				perFlow, err := score(compiled, res, &estName)
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
		summary.print(estName, *seed, *replicate)
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
		if err := manifest.writeJSON(*manifestOut); err != nil {
			return err
		}
	}
	// Stdout stays byte-identical across identical-flag runs, so only the
	// deterministic manifest fields are printed; wall-clock and heap live in
	// the -manifest file.
	fmt.Printf("\nrun manifest: fingerprint=%s seed=%d events=%d deliveries=%d sim-duration=%g\n",
		manifest.SpecFingerprint, manifest.Seed, manifest.Events, manifest.Deliveries, manifest.SimDuration)
	return nil
}

// score rates one run's deliveries per flow with an estimator built for
// that run, and reports the estimator's name through name.
func score(compiled *scenario.Compiled, res *tempriv.Result, name *string) (map[tempriv.NodeID]*tempriv.MSE, error) {
	est, err := compiled.Estimator()
	if err != nil {
		return nil, err
	}
	*name = est.Name()
	return tempriv.ScoreAdversaryPerFlow(est, res)
}

// runManifest is the -manifest record of the base seed's run: its spec
// fingerprint (seed included), what it simulated, and how it performed.
// PeakHeapBytes is the largest of the sampler's heap readings and one taken
// as the run ends.
type runManifest struct {
	SpecFingerprint string  `json:"spec_fingerprint"`
	Seed            uint64  `json:"seed"`
	GoVersion       string  `json:"go_version"`
	SimDuration     float64 `json:"sim_duration"`
	Events          uint64  `json:"events"`
	Deliveries      int     `json:"deliveries"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
}

// writeJSON writes the manifest as indented JSON to path.
func (m *runManifest) writeJSON(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding manifest: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	return nil
}

// heapPeak passes the sampler's samples on and keeps the largest heap
// reading among them.
type heapPeak struct {
	tempriv.TelemetryEmitter
	peak uint64
}

func (h *heapPeak) Emit(s tempriv.TelemetrySample) error {
	h.peak = max(h.peak, s.HeapAllocBytes)
	return h.TelemetryEmitter.Emit(s)
}

// parseFailures parses -fail's node@time list into the spec's failures.
func parseFailures(spec string) ([]scenario.FailureSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var out []scenario.FailureSpec
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
		out = append(out, scenario.FailureSpec{Node: int(id), At: t})
	}
	return out, nil
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
