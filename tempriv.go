// Package tempriv is a from-scratch reproduction of "Temporal Privacy in
// Wireless Sensor Networks" (Kamat, Xu, Trappe, Zhang — ICDCS 2007).
//
// Temporal privacy is the problem of preventing an adversary who observes
// packet arrivals at a sensor network's sink from inferring when those
// packets were created. The paper's defence — and this library's core — is
// RCAD (Rate-Controlled Adaptive Delaying): every node on the routing path
// buffers each packet for a random exponential delay, and when a finite
// buffer fills, the packet with the shortest remaining delay is transmitted
// immediately instead of dropping anything.
//
// The package is a facade over the internal implementation:
//
//   - Build a deployment with NewLineTopology, NewGridTopology,
//     NewMergeTreeTopology or Figure1Topology (the paper's evaluation
//     network).
//   - Describe traffic with PeriodicTraffic, PoissonTraffic, OnOffTraffic
//     or TraceTraffic.
//   - Configure buffering with the Policy* constants, a delay distribution
//     (ExponentialDelay et al.), a buffer capacity and a victim selector.
//   - Run the simulation with Run, which returns per-flow latency, per-node
//     buffer statistics, and the sink's packet deliveries.
//   - Attack the result with NewBaselineAdversary, NewAdaptiveAdversary or
//     NewPathAwareAdversary, scored by ScoreAdversary /
//     ScoreAdversaryPerFlow (mean square error, as in the paper).
//   - Regenerate every figure of the paper's evaluation via Experiments /
//     ExperimentByID, or plan per-node delays analytically with PlanDelays
//     (the §4 Erlang-loss design rule).
//
// Simulated time is unitless, matching the paper (per-hop transmission
// delay τ = 1 time unit, mean buffering delay 1/µ = 30, and so on). All
// randomness derives from Config.Seed: equal configurations produce
// identical results.
package tempriv

import (
	"fmt"
	"io"

	"tempriv/internal/adversary"
	"tempriv/internal/buffer"
	"tempriv/internal/core"
	"tempriv/internal/delay"
	"tempriv/internal/experiment"
	"tempriv/internal/metrics"
	"tempriv/internal/mix"
	"tempriv/internal/network"
	"tempriv/internal/packet"
	"tempriv/internal/queueing"
	"tempriv/internal/report"
	"tempriv/internal/rng"
	"tempriv/internal/routing"
	"tempriv/internal/sim"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
	"tempriv/internal/tracking"
	"tempriv/internal/traffic"
)

// Core simulation types, aliased from the internal packages so that every
// method documented there is available on the public API.
type (
	// NodeID identifies a node in a deployment; the sink is always node
	// Sink (0).
	NodeID = packet.NodeID
	// Header is the cleartext routing header an adversary can read.
	Header = packet.Header
	// Reading is the application payload (value, sequence, timestamp) that
	// travels encrypted.
	Reading = packet.Reading
	// Topology is a deployment: placed nodes and radio links.
	Topology = topology.Topology
	// Position locates a node on the deployment plane.
	Position = topology.Position
	// Config describes one simulation run; see Run.
	Config = network.Config
	// Source declares one traffic source within a Config.
	Source = network.Source
	// RateControl enables the §4 Erlang-loss delay planner on every node.
	RateControl = network.RateControl
	// NodeFailure schedules a permanent node death (failure injection).
	NodeFailure = network.NodeFailure
	// ChannelConfig models unreliable links: Bernoulli or Gilbert–Elliott
	// burst frame loss, plus ACK loss when ARQ is enabled.
	ChannelConfig = network.ChannelConfig
	// ARQConfig enables per-hop acknowledgement/retransmission with capped
	// exponential backoff.
	ARQConfig = network.ARQConfig
	// PolicyKind selects the buffering behaviour (see the Policy*
	// constants).
	PolicyKind = network.PolicyKind
	// Result is a completed simulation: deliveries, flow and node
	// statistics.
	Result = network.Result
	// Delivery is one packet arrival at the sink.
	Delivery = network.Delivery
	// FlowStats summarises one source flow.
	FlowStats = network.FlowStats
	// NodeStats summarises one buffering node.
	NodeStats = network.NodeStats
	// Observation is the adversary's view of one arrival.
	Observation = adversary.Observation
	// Estimator is an adversary strategy estimating packet creation times.
	Estimator = adversary.Estimator
	// MSE accumulates an adversary's mean square estimation error.
	MSE = metrics.MSE
	// LatencyReport summarises an end-to-end latency distribution.
	LatencyReport = metrics.LatencyReport
	// DelayDistribution is a samplable buffering-delay distribution.
	DelayDistribution = delay.Distribution
	// TrafficProcess generates packet interarrival times.
	TrafficProcess = traffic.Process
	// VictimSelector picks the packet a full RCAD buffer preempts.
	VictimSelector = buffer.VictimSelector
	// Scheduler is the discrete-event simulation kernel, passed to
	// Config.CustomPolicy factories, which schedule their policy's
	// callbacks on it (At/After).
	Scheduler = sim.Scheduler
	// Forward is the callback a buffering policy invokes to release a
	// packet.
	Forward = buffer.Forward
	// RandomSource is a deterministic random stream (each custom policy
	// receives its own substream).
	RandomSource = rng.Source
	// BufferPolicy is a node's store-and-forward buffering behaviour: Admit,
	// Len and Stats. Every buffering node holds one — under PolicyRCAD a
	// preemptive buffer fed with the node's delay draws — and
	// Config.CustomPolicy installs your own. A policy must not read a
	// packet after passing it to Forward: once the packet reaches the sink,
	// the engine reuses its memory for a new packet.
	BufferPolicy = buffer.Policy
	// Params are the shared experiment knobs (seed, packet counts, sweep).
	Params = experiment.Params
	// Experiment is one registered, reproducible study.
	Experiment = experiment.Experiment
	// Table is a rendered experiment result (ASCII and CSV).
	Table = report.Table
	// TraceEvent is one per-packet lifecycle record (see Config.Tracer).
	TraceEvent = trace.Event
	// TraceRecorder consumes lifecycle events.
	TraceRecorder = trace.Recorder
	// MemoryTracer retains lifecycle events in-process for analysis.
	MemoryTracer = trace.Memory
	// JSONLTracer streams lifecycle events as JSON Lines.
	JSONLTracer = trace.JSONL
	// TelemetryConfig attaches the run-observability layer to a Config:
	// a live metric registry and/or a sim-time queue-state sampler. See
	// Config.Telemetry.
	TelemetryConfig = telemetry.Config
	// TelemetryRegistry is a thread-safe collection of live counters,
	// gauges and log-bucketed histograms. It serves the Prometheus text
	// format over HTTP (it implements http.Handler).
	TelemetryRegistry = telemetry.Registry
	// TelemetrySample is one sim-time snapshot of queue state: per-node
	// occupancy, in-flight count, cumulative delivery/drop counters and
	// the adversary-observable sink arrival rate.
	TelemetrySample = telemetry.Sample
	// TelemetryEmitter consumes the sampler's time series.
	TelemetryEmitter = telemetry.Emitter
	// MemoryEmitter retains samples in-process.
	MemoryEmitter = telemetry.Memory
	// JSONLEmitter streams samples as JSON Lines; Close it to flush.
	JSONLEmitter = telemetry.JSONL
)

// Trace event kinds recorded by Config.Tracer.
const (
	// TraceCreated: a source generated the packet.
	TraceCreated = trace.Created
	// TraceAdmitted: a node's buffer accepted the packet.
	TraceAdmitted = trace.Admitted
	// TraceReleased: the packet completed its sampled delay.
	TraceReleased = trace.Released
	// TracePreempted: RCAD forced the packet out early.
	TracePreempted = trace.Preempted
	// TraceDelivered: the packet reached the sink.
	TraceDelivered = trace.Delivered
	// TraceLost: the packet died at a failed node.
	TraceLost = trace.Lost
	// TraceLinkLoss: the channel destroyed a frame (or its ACK) in flight.
	TraceLinkLoss = trace.LinkLoss
	// TraceRetransmit: ARQ re-sent a frame after a timeout.
	TraceRetransmit = trace.Retransmit
	// TraceLinkDrop: the ARQ retry budget ran out; the packet is gone.
	TraceLinkDrop = trace.LinkDrop
	// TraceRerouted: route repair gave the node a new parent after a failure.
	TraceRerouted = trace.Rerouted
	// TraceDuplicate: the sink suppressed an ARQ-induced duplicate arrival.
	TraceDuplicate = trace.Duplicate
)

// DefaultARQ returns the ARQ configuration the CLIs and the abl-linkloss
// experiment use: 3 retries per hop, timeout 3τ, backoff ×2 capped at 10×.
func DefaultARQ() *ARQConfig { return network.DefaultARQ() }

// NewJSONLTracer returns a TraceRecorder writing one JSON object per
// lifecycle event to w; check its Err method after the run.
func NewJSONLTracer(w io.Writer) (*JSONLTracer, error) { return trace.NewJSONL(w) }

// NewTelemetryRegistry returns an empty live-metric registry for
// TelemetryConfig.Registry. A nil registry disables live metrics at
// near-zero cost.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewJSONLEmitter returns a TelemetryEmitter streaming one JSON object per
// sample to w through an internal buffer; Close it after the run and check
// the error.
func NewJSONLEmitter(w io.Writer) (*JSONLEmitter, error) { return telemetry.NewJSONL(w) }

// NewPromFileEmitter returns a TelemetryEmitter that rewrites path with the
// registry's Prometheus text snapshot on every sample (the textfile-
// collector pattern for watching long runs without HTTP).
func NewPromFileEmitter(reg *TelemetryRegistry, path string) (TelemetryEmitter, error) {
	return telemetry.NewPromFile(reg, path)
}

// MultiTelemetryEmitter fans samples out to several emitters; closing it
// closes every wrapped emitter that buffers output.
func MultiTelemetryEmitter(emitters ...TelemetryEmitter) TelemetryEmitter {
	return telemetry.MultiEmitter(emitters...)
}

// ConfigFingerprint returns the hex SHA-256 of v's canonical JSON form —
// the same fingerprinting scenario specs use as their content address.
func ConfigFingerprint(v any) (string, error) { return telemetry.Fingerprint(v) }

// Sink is the node ID of the network sink in every topology.
const Sink = topology.Sink

// DefaultBufferCapacity is the paper's buffer size: 10 packets (§5.3,
// approximating a Mica-2 mote).
const DefaultBufferCapacity = core.DefaultCapacity

// Buffering policies, matching the paper's evaluation cases (§5.3).
const (
	// PolicyForward forwards packets immediately (case 1, "NoDelay").
	PolicyForward = network.PolicyForward
	// PolicyUnlimited delays with unbounded buffers (case 2).
	PolicyUnlimited = network.PolicyUnlimited
	// PolicyDropTail delays with finite buffers that drop when full (§4's
	// M/M/k/k model).
	PolicyDropTail = network.PolicyDropTail
	// PolicyRCAD delays with finite buffers that preempt when full — the
	// paper's contribution (case 3).
	PolicyRCAD = network.PolicyRCAD
	// PolicyCustom installs the BufferPolicy built by Config.CustomPolicy
	// on every node (e.g. ThresholdMixPolicy, TimedMixPolicy, or your own).
	PolicyCustom = network.PolicyCustom
)

// Run executes one simulation to completion. See Config for the knobs; the
// zero values of optional fields reproduce the paper's settings (τ = 1,
// k = 10, shortest-remaining victim selection).
func Run(cfg Config) (*Result, error) { return network.Run(cfg) }

// EngineCache pools built simulation engines by structural shape: the
// topology, policy kind, capacity, victim rule and rate-control design
// point. Runs through RunBorrowed that differ only in what every run
// adopts fresh (seed, traffic, delays, channel, ARQ, horizon, failures,
// observers) share engines, so a sweep builds at most one engine per shape
// for each run it executes at once, and reuses them for every later point
// and replicate. The cache also recycles the results it lends. Safe for
// concurrent use: an engine or a result belongs to one run at a time.
type EngineCache = network.EngineCache

// NewEngineCache returns an empty engine cache for use with RunBorrowed.
func NewEngineCache() *EngineCache { return network.NewEngineCache() }

// RunBorrowed is Run through an EngineCache, for a caller that is done
// with the result when use returns: structurally matching configs reuse a
// pooled engine, custom-policy and observed (tracer, telemetry) runs
// included, and use borrows the run's Result, which the cache then refills
// for a later run. use must not keep the result, or anything it points to.
// What use sees is byte-identical to Run's result. A nil cache runs once,
// as Run does. A run error is returned without calling use; otherwise
// RunBorrowed returns use's error.
func RunBorrowed(cache *EngineCache, cfg Config, use func(*Result) error) error {
	return network.RunBorrowed(cache, cfg, use)
}

// NewLineTopology builds the §3.3 line network: a single source `hops` hops
// from the sink, node i being i hops out.
func NewLineTopology(hops int) (*Topology, error) { return topology.Line(hops) }

// NewGridTopology builds a w×h grid deployment with 4-neighbour links and
// the sink at one corner. Mark traffic sources with Topology.MarkSource.
func NewGridTopology(w, h int) (*Topology, error) { return topology.Grid(w, h) }

// GridNodeID returns the node at grid coordinate (x, y) of a grid built
// with width w.
func GridNodeID(w, x, y int) NodeID { return topology.GridID(w, x, y) }

// NewMergeTreeTopology builds one source per hop count whose routing paths
// share the final trunkLen hops before the sink (§4's progressive merging).
// It returns the topology and the sources in hopCounts order.
func NewMergeTreeTopology(hopCounts []int, trunkLen int) (*Topology, []NodeID, error) {
	return topology.MergeTree(hopCounts, trunkLen)
}

// Figure1Topology builds the paper's evaluation network: four flows with
// hop counts 15, 22, 9 and 11 merging toward the sink (§5.2, Figure 1). The
// returned sources are S1…S4 in paper order.
func Figure1Topology() (*Topology, []NodeID, error) { return topology.Figure1() }

// NewRandomGeometricTopology builds the classic WSN deployment model: n
// nodes placed uniformly in a side×side field, linked within the radio
// radius (unit-disk graph), sink at the origin corner. Placement is
// deterministic in seed; it returns an error (topology.ErrDisconnected
// internally) when the sampled field cannot reach the sink — retry with
// another seed, more nodes, or a larger radius.
func NewRandomGeometricTopology(n int, side, radius float64, seed uint64) (*Topology, error) {
	return topology.RandomGeometric(n, side, radius, rng.New(seed))
}

// ExponentialDelay returns the paper's delay distribution of choice:
// exponential with the given mean (1/µ), the maximum-entropy non-negative
// distribution at fixed mean (§3.2).
func ExponentialDelay(mean float64) (DelayDistribution, error) { return delay.NewExponential(mean) }

// UniformDelay returns a delay uniform on [0, 2·mean].
func UniformDelay(mean float64) (DelayDistribution, error) { return delay.NewUniform(mean) }

// ConstantDelay returns a deterministic delay.
func ConstantDelay(value float64) (DelayDistribution, error) { return delay.NewConstant(value) }

// ParetoDelay returns a heavy-tailed Pareto delay with the given mean and
// shape (> 1).
func ParetoDelay(mean, shape float64) (DelayDistribution, error) {
	return delay.NewPareto(mean, shape)
}

// DelayByName constructs a delay distribution from its report name
// ("exponential", "uniform", "constant", "pareto", "none").
func DelayByName(name string, mean float64) (DelayDistribution, error) {
	return delay.ByName(name, mean)
}

// PeriodicTraffic returns the paper's evaluation traffic: one packet every
// interval time units (§5.2).
func PeriodicTraffic(interval float64) (TrafficProcess, error) { return traffic.NewPeriodic(interval) }

// PoissonTraffic returns a Poisson packet-creation process with rate λ
// (used by the paper's analytic sections).
func PoissonTraffic(rate float64) (TrafficProcess, error) { return traffic.NewPoisson(rate) }

// OnOffTraffic returns a bursty two-state source: Poisson bursts at onRate
// for exponential on-periods (mean onMean) separated by exponential silences
// (mean offMean).
func OnOffTraffic(onRate, onMean, offMean float64) (TrafficProcess, error) {
	return traffic.NewOnOff(onRate, onMean, offMean)
}

// TraceTraffic replays a recorded interarrival sequence, looping at the end.
func TraceTraffic(intervals []float64) (TrafficProcess, error) { return traffic.NewTrace(intervals) }

// Victim selectors for PolicyRCAD.
var (
	// ShortestRemainingVictim is the paper's rule: preempt the packet
	// closest to leaving anyway (§5).
	ShortestRemainingVictim VictimSelector = buffer.ShortestRemaining{}
	// LongestRemainingVictim preempts the packet with the most delay left.
	LongestRemainingVictim VictimSelector = buffer.LongestRemaining{}
	// OldestVictim preempts the packet buffered longest.
	OldestVictim VictimSelector = buffer.Oldest{}
	// RandomVictim preempts a uniformly random packet.
	RandomVictim VictimSelector = buffer.Random{}
)

// VictimByName returns a victim selector from its report name
// ("shortest-remaining", "longest-remaining", "oldest", "random").
func VictimByName(name string) (VictimSelector, error) { return buffer.SelectorByName(name) }

// PolicyByName returns a built-in policy kind from its report name
// ("no-delay", "delay-unlimited", "delay-droptail", "rcad"). PolicyCustom
// has no name to look up: it needs a CustomPolicy factory.
func PolicyByName(name string) (PolicyKind, error) { return network.PolicyByName(name) }

// NewBaselineAdversary returns the §2.1 adversary: it estimates each
// packet's creation time as arrival − h·(τ + meanDelay), where h is the
// cleartext hop count. Use meanDelay 0 against a non-delaying network.
func NewBaselineAdversary(tau, meanDelay float64) (Estimator, error) {
	return adversary.NewBaseline(tau, meanDelay)
}

// NewAdaptiveAdversary returns the §5.4 adversary: it measures arrival
// rates at the sink and switches its per-hop delay estimate to
// min(1/µ, k/λ_flow) when the Erlang loss formula predicts preemption above
// threshold (the paper uses 0.1). The estimator measures the arrivals of
// one run, and scoring a second run with it rates that run's arrivals
// against the first's, so build one per run.
func NewAdaptiveAdversary(tau, meanDelay float64, bufferSlots int, threshold float64) (Estimator, error) {
	return adversary.NewAdaptive(tau, meanDelay, bufferSlots, threshold)
}

// NewPathAwareAdversary returns the deployment-knowledge extension of the
// adaptive adversary: given each flow's routing path it estimates every
// hop's delay from that node's aggregate traffic. Build paths with
// FlowPaths. Like the adaptive adversary it measures the arrivals of one
// run, so build one per run.
func NewPathAwareAdversary(tau, meanDelay float64, bufferSlots int, threshold float64, paths map[NodeID][]NodeID) (Estimator, error) {
	return adversary.NewPathAware(tau, meanDelay, bufferSlots, threshold, paths)
}

// NewLatticeAdversary wraps another estimator with the knowledge that
// sources emit periodically: estimates snap to the nearest multiple of the
// period. It recovers creation times exactly whenever the inner error stays
// under half a period — so a delay budget below the source's own timing
// granularity buys no temporal privacy at all (see the abl-lattice
// experiment).
func NewLatticeAdversary(inner Estimator, period float64) (Estimator, error) {
	return adversary.NewLattice(inner, period)
}

// ScoreAdversary replays a result's deliveries through an estimator and
// returns its mean square error — the paper's privacy metric (higher MSE
// means more temporal privacy).
func ScoreAdversary(est Estimator, res *Result) (*MSE, error) {
	all, _, err := res.Score(est)
	return all, err
}

// ScoreAdversaryPerFlow is ScoreAdversary broken out by source flow,
// matching the paper's per-flow reporting.
func ScoreAdversaryPerFlow(est Estimator, res *Result) (map[NodeID]*MSE, error) {
	_, perFlow, err := res.Score(est)
	return perFlow, err
}

// FlowPaths computes, for every source marked in the topology, the ordered
// buffering nodes on its routing path (source first, sink excluded) — the
// input NewPathAwareAdversary needs.
func FlowPaths(topo *Topology) (map[NodeID][]NodeID, error) {
	routes, err := routing.BuildTree(topo)
	if err != nil {
		return nil, fmt.Errorf("tempriv: routing: %w", err)
	}
	return routes.FlowPaths(topo.Sources())
}

// HopCounts returns each marked source's routing-path length to the sink.
func HopCounts(topo *Topology) (map[NodeID]int, error) {
	routes, err := routing.BuildTree(topo)
	if err != nil {
		return nil, fmt.Errorf("tempriv: routing: %w", err)
	}
	out := make(map[NodeID]int)
	for _, s := range topo.Sources() {
		h, ok := routes.HopCount(s)
		if !ok {
			return nil, fmt.Errorf("tempriv: source %v not routed", s)
		}
		out[s] = h
	}
	return out, nil
}

// PlanDelays runs the §4 Erlang-loss planner over a topology: given each
// source's packet rate, a buffer size k and a target drop/preemption
// probability alpha, it returns the mean buffering delay every node should
// use (capped at maxMean). Nodes near the sink carry aggregated traffic and
// receive proportionally shorter delays — the paper's key provisioning
// observation. Feed the result to Config.PerNodeDelay via
// DelaysFromPlan.
func PlanDelays(topo *Topology, sourceRates map[NodeID]float64, k int, alpha, maxMean float64) (map[NodeID]float64, error) {
	routes, err := routing.BuildTree(topo)
	if err != nil {
		return nil, fmt.Errorf("tempriv: routing: %w", err)
	}
	agg, err := routes.AggregateRates(sourceRates)
	if err != nil {
		return nil, fmt.Errorf("tempriv: aggregating rates: %w", err)
	}
	plan, err := core.PlanTree(agg, k, alpha, maxMean)
	if err != nil {
		return nil, fmt.Errorf("tempriv: planning delays: %w", err)
	}
	return plan, nil
}

// DelaysFromPlan converts a PlanDelays result into the exponential per-node
// delay distributions Config.PerNodeDelay expects.
func DelaysFromPlan(plan map[NodeID]float64) (map[NodeID]DelayDistribution, error) {
	out := make(map[NodeID]DelayDistribution, len(plan))
	for id, mean := range plan {
		d, err := delay.NewExponential(mean)
		if err != nil {
			return nil, fmt.Errorf("tempriv: node %v: %w", id, err)
		}
		out[id] = d
	}
	return out, nil
}

// ThresholdMixPolicy returns a Config.CustomPolicy factory installing a
// Chaum-style threshold pool mix on every node: messages accumulate until
// batch+pool are buffered, then batch random messages flush while pool
// random messages stay to mix with future traffic. One of the §6
// related-work comparators (see the abl-mix experiment).
func ThresholdMixPolicy(batch, pool int) func(*Scheduler, Forward, *RandomSource) (BufferPolicy, error) {
	return func(s *Scheduler, f Forward, src *RandomSource) (BufferPolicy, error) {
		return mix.NewThresholdMix(s, f, batch, pool, src)
	}
}

// TimedMixPolicy returns a Config.CustomPolicy factory installing a timed
// mix on every node: the whole buffer flushes every interval, in random
// order.
func TimedMixPolicy(interval float64) func(*Scheduler, Forward, *RandomSource) (BufferPolicy, error) {
	return func(s *Scheduler, f Forward, src *RandomSource) (BufferPolicy, error) {
		return mix.NewTimedMix(s, f, interval, src)
	}
}

// BestConstantOffsetMSE returns, per flow, the MSE of a genie adversary
// that knows each flow's exact mean delay — the scheme-independent privacy
// floor used to compare unlike delaying mechanisms (it equals the per-flow
// latency variance).
func BestConstantOffsetMSE(res *Result) (map[NodeID]float64, error) {
	return adversary.BestConstantOffsetMSE(res.Observations(), res.Truths())
}

// ErlangLoss returns the Erlang-B blocking probability E(ρ, k): the chance
// an arriving packet finds all k buffer slots of an M/M/k/k node full
// (§4 eq. 5).
func ErlangLoss(rho float64, k int) (float64, error) { return queueing.ErlangLoss(rho, k) }

// PlanMu returns the per-packet delay rate µ a k-slot node with incoming
// rate lambda must use so its Erlang loss equals alpha — the single-node
// form of PlanDelays.
func PlanMu(lambda float64, k int, alpha float64) (float64, error) {
	return queueing.PlanMu(lambda, k, alpha)
}

// MMInfOccupancyPMF returns the steady-state probability that an unlimited
// delaying buffer with arrival rate lambda and mean delay 1/mu holds
// exactly n packets: Poisson(λ/µ) at n (§4).
func MMInfOccupancyPMF(lambda, mu float64, n int) (float64, error) {
	return queueing.MMInfOccupancyPMF(lambda, mu, n)
}

// MMkkOccupancyPMF returns the steady-state occupancy distribution of a
// k-slot M/M/k/k buffer at utilization rho, evaluated at n.
func MMkkOccupancyPMF(rho float64, k, n int) (float64, error) {
	return queueing.MMkkOccupancyPMF(rho, k, n)
}

// Asset-tracking types (package tracking): the paper's §1 motivation made
// quantitative — temporal estimation error becomes spatial tracking error.
type (
	// Waypoint fixes a mobile asset's position at a time.
	Waypoint = tracking.Waypoint
	// Trajectory is a piecewise-linear asset path.
	Trajectory = tracking.Trajectory
	// Sighting is one sensor detection of the asset (the packet-creation
	// event whose time RCAD protects).
	Sighting = tracking.Sighting
	// TrackReport pairs a reporting sensor's position with the adversary's
	// creation-time estimate.
	TrackReport = tracking.Report
	// TrackReconstruction is the adversary's estimated asset trajectory.
	TrackReconstruction = tracking.Reconstruction
	// TrackError summarises spatial tracking error (mean/max distance).
	TrackError = tracking.Error
)

// NewTrajectory builds an asset trajectory from waypoints with strictly
// increasing times.
func NewTrajectory(points []Waypoint) (*Trajectory, error) { return tracking.NewTrajectory(points) }

// AssetSightings samples a trajectory and returns which sensors detect the
// asset when, given a detection range and sampling interval.
func AssetSightings(topo *Topology, traj *Trajectory, detectionRange, sampleInterval float64) ([]Sighting, error) {
	return tracking.Sightings(topo, traj, detectionRange, sampleInterval)
}

// ReconstructTrack builds the adversary's trajectory estimate from
// (position, estimated time) reports.
func ReconstructTrack(reports []TrackReport) (*TrackReconstruction, error) {
	return tracking.Reconstruct(reports)
}

// EvaluateTracking scores a reconstruction against the true trajectory,
// sampling every step time units.
func EvaluateTracking(traj *Trajectory, rec *TrackReconstruction, step float64) (TrackError, error) {
	return tracking.TrackingError(traj, rec, step)
}

// BatchMeansResult is the outcome of a batch-means steady-state analysis.
type BatchMeansResult = metrics.BatchMeansResult

// BatchMeans estimates a steady-state mean with a 95% confidence interval
// from one correlated sample path (standard simulation-output methodology).
func BatchMeans(samples []float64, batches int) (BatchMeansResult, error) {
	return metrics.BatchMeans(samples, batches)
}

// MMInfTransientMean returns the expected occupancy of an M/M/∞ buffering
// node t time units after starting empty: ρ·(1 − e^{−µt}) — the warmup
// curve behind every steady-state measurement in this repository.
func MMInfTransientMean(lambda, mu, t float64) (float64, error) {
	return queueing.MMInfTransientMean(lambda, mu, t)
}

// Experiments returns the full registry of reproducible studies: the
// paper's Figures 2(a), 2(b) and 3, the §3/§4 analytic validations, and the
// design-choice ablations. See DESIGN.md for the index.
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID returns one registered experiment ("fig2a", "fig3",
// "erlang", …).
func ExperimentByID(id string) (Experiment, error) { return experiment.ByID(id) }

// ExperimentIDs returns the registered experiment IDs in presentation
// order.
func ExperimentIDs() []string { return experiment.IDs() }

// DefaultParams returns the paper's §5.2 evaluation parameters: 1000
// packets per source, 1/λ from 2 to 20, 1/µ = 30, k = 10, τ = 1.
func DefaultParams() Params { return experiment.Defaults() }

// ReplicateExperiment runs an experiment under n consecutive seeds and
// returns the across-seed means with 95% confidence half-widths — the
// replication the paper's single-run evaluation lacks. The replications
// are spread over up to workers goroutines (workers <= 0 means one per
// CPU). Seeds derive from the replication index, and reduction order is
// fixed, so the table is byte-identical for every worker count.
func ReplicateExperiment(e Experiment, p Params, n, workers int) (*Table, error) {
	return experiment.ReplicateRun(e, p, n, experiment.ReplicateConfig{Workers: workers})
}
