// Package scenario defines the versioned JSON scenario specification that
// the serving subsystem (cmd/temprivd, internal/server), the sweep CLI and
// rcadsim share: one declarative document describing a simulation study —
// topology, traffic, buffering policy, rate control, link loss/ARQ, node
// failures, adversary and replicate count — that parses strictly,
// validates fail-closed, canonicalizes to a unique normal form, and
// fingerprints to the SHA-256 content address the result cache
// (internal/resultcache) is keyed by.
//
// A Spec is either an "experiment" scenario (one registered study from
// internal/experiment, with its Params) or a "simulation" scenario (one
// ad-hoc network.Run described field by field). Both kinds execute through
// Run, so the HTTP server and the CLI share a single execution engine, and
// equal fingerprints always mean byte-identical result tables (every run is
// seed-deterministic by construction). A simulation spec reaches the engine
// through Compile alone, which rcadsim calls too: its flags are a front end
// that maps onto a SimulationSpec.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"tempriv/internal/experiment"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
)

// CurrentVersion is the only spec version this build understands. Unknown
// versions fail closed: a newer producer's spec is rejected, never
// half-interpreted.
const CurrentVersion = 1

// Hard validation bounds. The serving path accepts specs from the network,
// so every numeric field is range-checked: a spec cannot ask for an
// unbounded amount of work or a nonsensical model.
const (
	maxPackets       = 1_000_000
	maxReplicates    = 64
	maxInterarrivals = 64
	maxHops          = 1024
	maxGridSide      = 256
	maxCapacity      = 4096
	maxDelayMean     = 1e9
	maxTau           = 1e6
	maxARQRetries    = 100
	// maxFieldNodes caps a random field: placing one costs O(n²) distance
	// checks, up to maxPlacements times.
	maxFieldNodes  = 1024
	maxFieldExtent = 1e6
	// maxFailures bounds the failure list: with route repair each failure
	// rebuilds the routing tree.
	maxFailures    = 64
	maxFailureTime = 1e12
	// minBurstPackets bounds an on-off source's expected packets per burst
	// (rate × on_mean) from below: each packet costs about
	// 1/(rate × on_mean) burst draws, so at this bound maxPackets packets
	// stay within about 10⁹ draws.
	minBurstPackets = 1e-3
)

// ErrInvalid tags every validation failure; errors.Is(err, ErrInvalid)
// distinguishes a bad spec (HTTP 400) from an execution failure (HTTP 500).
var ErrInvalid = errors.New("invalid scenario")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, args...)...)
}

// Spec is one versioned scenario document. Exactly one of Experiment and
// Simulation must be set.
type Spec struct {
	// Version is the spec format version; must equal CurrentVersion.
	Version int `json:"version"`
	// Name is an optional human label. It is excluded from the
	// fingerprint: renaming a scenario does not invalidate its cached
	// results.
	Name string `json:"name,omitempty"`
	// Experiment runs one registered study from the experiment registry.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	// Simulation runs one ad-hoc simulation described field by field.
	Simulation *SimulationSpec `json:"simulation,omitempty"`
}

// ExperimentSpec selects a registered experiment and its Params. Zero
// fields take the paper defaults (experiment.Defaults), and normalization
// makes "omitted" and "explicitly default" fingerprint identically.
type ExperimentSpec struct {
	// ID is the registered experiment ("fig2a", "erlang", …). Required.
	ID string `json:"id"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Packets per source (default 1000).
	Packets int `json:"packets,omitempty"`
	// Interarrivals is the 1/λ sweep (default 2..20).
	Interarrivals []float64 `json:"interarrivals,omitempty"`
	// MeanDelay is the per-hop mean buffering delay 1/µ (default 30).
	MeanDelay float64 `json:"mean_delay,omitempty"`
	// Capacity is the buffer size k (default 10).
	Capacity int `json:"capacity,omitempty"`
	// Tau is the per-hop transmission delay τ (default 1).
	Tau float64 `json:"tau,omitempty"`
	// Threshold is the adaptive adversary's switch point (default 0.1).
	Threshold float64 `json:"threshold,omitempty"`
	// Replicates averages the study over N consecutive seeds (default 1).
	Replicates int `json:"replicates,omitempty"`
}

// SimulationSpec describes one ad-hoc simulation: the rcadsim CLI's
// vocabulary as a declarative document.
type SimulationSpec struct {
	// Topology is the deployment. Required.
	Topology TopologySpec `json:"topology"`
	// Traffic is the per-source packet process (default periodic, 1/λ=2).
	Traffic TrafficSpec `json:"traffic,omitempty"`
	// Policy is the buffering behaviour: no-delay | delay-unlimited |
	// delay-droptail | rcad (default rcad).
	Policy string `json:"policy,omitempty"`
	// Delay is the buffering-delay distribution (default exponential,
	// mean 30). Must be absent for policy no-delay.
	Delay *DelaySpec `json:"delay,omitempty"`
	// Capacity is the buffer size k (default 10).
	Capacity int `json:"capacity,omitempty"`
	// Victim is the RCAD preemption rule (default shortest-remaining).
	Victim string `json:"victim,omitempty"`
	// Tau is the per-hop transmission delay τ (default 1).
	Tau float64 `json:"tau,omitempty"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Packets per source (default 1000).
	Packets int `json:"packets,omitempty"`
	// Seal turns on end-to-end payload sealing (AES-CTR + HMAC).
	Seal bool `json:"seal,omitempty"`
	// Adversary scores the run: baseline | adaptive | path-aware
	// (default baseline).
	Adversary string `json:"adversary,omitempty"`
	// Threshold is the adaptive adversary's Erlang-loss switch point
	// (default 0.1).
	Threshold float64 `json:"threshold,omitempty"`
	// Channel models unreliable links (optional).
	Channel *ChannelSpec `json:"channel,omitempty"`
	// ARQ enables link-layer acknowledgement/retransmission (optional).
	ARQ *ARQSpec `json:"arq,omitempty"`
	// RateControl turns on §4's per-node delay planner (optional; policy
	// rcad only).
	RateControl *RateControlSpec `json:"rate_control,omitempty"`
	// Failures kill nodes during the run (optional).
	Failures []FailureSpec `json:"failures,omitempty"`
	// RouteRepair rebuilds routes around failed nodes and re-homes their
	// buffers (requires failures).
	RouteRepair bool `json:"route_repair,omitempty"`
	// Replicates averages the scenario over N consecutive seeds
	// (default 1).
	Replicates int `json:"replicates,omitempty"`
}

// TopologySpec selects a deployment. Node IDs run contiguously from the
// sink, 0: Figure 1 has 34 nodes, a line hops+1, a grid width·height and a
// random field nodes+1.
type TopologySpec struct {
	// Kind is figure1 | line | grid | random.
	Kind string `json:"kind"`
	// Hops is the line length (kind line; default 15).
	Hops int `json:"hops,omitempty"`
	// Width and Height size the grid (kind grid; default 10×10).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Nodes, Side and Radius shape a random geometric field: nodes placed
	// uniformly on a side×side square, linked within radio radius (kind
	// random; default 150 nodes, side 10, radius 1.6). The field is placed
	// from the spec's seed, so every replicate runs on the same field, and
	// its source is the node farthest from the sink.
	Nodes  int     `json:"nodes,omitempty"`
	Side   float64 `json:"side,omitempty"`
	Radius float64 `json:"radius,omitempty"`
}

// TrafficSpec selects the packet-creation process.
type TrafficSpec struct {
	// Kind is periodic | poisson | onoff (default periodic).
	Kind string `json:"kind,omitempty"`
	// Interval is the periodic interarrival 1/λ (kind periodic;
	// default 2).
	Interval float64 `json:"interval,omitempty"`
	// Rate is the Poisson/burst packet rate λ (kinds poisson and onoff;
	// required there).
	Rate float64 `json:"rate,omitempty"`
	// OnMean and OffMean are the mean burst and silence durations
	// (kind onoff; required there).
	OnMean  float64 `json:"on_mean,omitempty"`
	OffMean float64 `json:"off_mean,omitempty"`
}

// DelaySpec selects the buffering-delay distribution.
type DelaySpec struct {
	// Dist is exponential | uniform | constant | pareto (default
	// exponential).
	Dist string `json:"dist,omitempty"`
	// Mean is the distribution mean 1/µ (default 30).
	Mean float64 `json:"mean,omitempty"`
	// Shape is the Pareto tail index (kind pareto; must be > 1).
	Shape float64 `json:"shape,omitempty"`
}

// ChannelSpec models per-link frame loss, mirroring network.ChannelConfig.
type ChannelSpec struct {
	// LossP is the frame-loss probability (good state under Burst).
	LossP float64 `json:"loss_p,omitempty"`
	// Burst switches to the Gilbert–Elliott burst-loss channel.
	Burst bool `json:"burst,omitempty"`
	// BurstLossP is the bad-state loss probability (with Burst).
	BurstLossP float64 `json:"burst_loss_p,omitempty"`
	// MeanGoodRun and MeanBurstLen shape the burst process (0 = default).
	MeanGoodRun  float64 `json:"mean_good_run,omitempty"`
	MeanBurstLen float64 `json:"mean_burst_len,omitempty"`
	// AckLossP is the ACK-loss probability (requires ARQ).
	AckLossP float64 `json:"ack_loss_p,omitempty"`
}

// ARQSpec enables link-layer ARQ, mirroring network.ARQConfig.
type ARQSpec struct {
	// MaxRetries is the per-hop retransmission budget (default 3).
	MaxRetries int `json:"max_retries,omitempty"`
	// Timeout is the retransmission timeout (0 = 3τ).
	Timeout float64 `json:"timeout,omitempty"`
	// Backoff is the timeout multiplier (0 = 2; otherwise >= 1).
	Backoff float64 `json:"backoff,omitempty"`
}

// RateControlSpec turns on §4's per-node delay planner, mirroring
// network.RateControl: each RCAD node sets its mean delay so that its
// Erlang loss stays at the target for the traffic it measures.
type RateControlSpec struct {
	// TargetLoss is the Erlang-loss target α, in (0, 1). Required.
	TargetLoss float64 `json:"target_loss"`
}

// FailureSpec kills one node at one time, mirroring network.NodeFailure.
type FailureSpec struct {
	// Node is the failing node's ID: not the sink, 0, and within the
	// topology's node count.
	Node int `json:"node"`
	// At is the failure's simulated time, >= 0.
	At float64 `json:"at"`
}

// Parse decodes data as a Spec, strictly: unknown fields, trailing data,
// and any validation failure are errors. The returned spec is normalized
// (defaults filled), ready to Fingerprint or Run.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, invalidf("decoding: %v", err)
	}
	if dec.More() {
		return Spec{}, invalidf("trailing data after spec document")
	}
	return s.Normalize()
}

// Normalize validates s fail-closed and returns the canonical form: every
// defaultable zero field replaced by its default, so that two specs asking
// for the same study — one implicitly, one explicitly — are equal documents
// with equal fingerprints.
func (s Spec) Normalize() (Spec, error) {
	if s.Version != CurrentVersion {
		return Spec{}, invalidf("unsupported version %d (this build understands %d)", s.Version, CurrentVersion)
	}
	switch {
	case s.Experiment == nil && s.Simulation == nil:
		return Spec{}, invalidf("one of experiment or simulation is required")
	case s.Experiment != nil && s.Simulation != nil:
		return Spec{}, invalidf("experiment and simulation are mutually exclusive")
	case s.Experiment != nil:
		e := *s.Experiment
		if err := e.normalize(); err != nil {
			return Spec{}, err
		}
		s.Experiment = &e
	default:
		sim := *s.Simulation
		if err := sim.normalize(); err != nil {
			return Spec{}, err
		}
		s.Simulation = &sim
	}
	return s, nil
}

// Fingerprint returns the hex SHA-256 of the normalized spec's canonical
// JSON — the content address under which this scenario's results are
// cached. The Name field is excluded; every other field (seed included —
// results depend on it) participates.
func (s Spec) Fingerprint() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	n.Name = ""
	return telemetry.Fingerprint(n)
}

// CanonicalJSON returns the normalized spec as deterministic JSON (the
// document the fingerprint hashes, plus the name label).
func (s Spec) CanonicalJSON() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Kind returns "experiment" or "simulation" for a validated spec.
func (s Spec) Kind() string {
	if s.Experiment != nil {
		return "experiment"
	}
	return "simulation"
}

// Label returns a short human identifier: the name if set, else the
// experiment ID or the simulation's topology/policy summary.
func (s Spec) Label() string {
	switch {
	case s.Name != "":
		return s.Name
	case s.Experiment != nil:
		return s.Experiment.ID
	case s.Simulation != nil:
		return s.Simulation.Topology.Kind + "/" + s.Simulation.Policy
	default:
		return "(invalid)"
	}
}

// Replicates returns the spec's across-seed replication count (1 for a
// single run) — how many chunk frames a fully streamed job persists.
func (s Spec) Replicates() int {
	n := 1
	switch {
	case s.Experiment != nil:
		n = s.Experiment.Replicates
	case s.Simulation != nil:
		n = s.Simulation.Replicates
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (e *ExperimentSpec) normalize() error {
	if e.ID == "" {
		return invalidf("experiment.id is required")
	}
	if _, err := experiment.ByID(e.ID); err != nil {
		return invalidf("experiment.id: %v", err)
	}
	d := experiment.Defaults()
	if e.Seed == 0 {
		e.Seed = d.Seed
	}
	if e.Packets == 0 {
		e.Packets = d.Packets
	}
	if e.Packets < 1 || e.Packets > maxPackets {
		return invalidf("experiment.packets %d out of range [1, %d]", e.Packets, maxPackets)
	}
	if len(e.Interarrivals) == 0 {
		e.Interarrivals = append([]float64(nil), d.Interarrivals...)
	}
	if len(e.Interarrivals) > maxInterarrivals {
		return invalidf("experiment.interarrivals has %d points (max %d)", len(e.Interarrivals), maxInterarrivals)
	}
	for _, ia := range e.Interarrivals {
		if !(ia > 0) || ia > maxTau {
			return invalidf("experiment.interarrivals value %v out of range (0, %g]", ia, float64(maxTau))
		}
	}
	if e.MeanDelay == 0 {
		e.MeanDelay = d.MeanDelay
	}
	if !(e.MeanDelay > 0) || e.MeanDelay > maxDelayMean {
		return invalidf("experiment.mean_delay %v out of range (0, %g]", e.MeanDelay, float64(maxDelayMean))
	}
	if e.Capacity == 0 {
		e.Capacity = d.Capacity
	}
	if e.Capacity < 1 || e.Capacity > maxCapacity {
		return invalidf("experiment.capacity %d out of range [1, %d]", e.Capacity, maxCapacity)
	}
	if e.Tau == 0 {
		e.Tau = d.Tau
	}
	if !(e.Tau > 0) || e.Tau > maxTau {
		return invalidf("experiment.tau %v out of range (0, %g]", e.Tau, float64(maxTau))
	}
	if e.Threshold == 0 {
		e.Threshold = d.Threshold
	}
	if !(e.Threshold > 0) || e.Threshold >= 1 {
		return invalidf("experiment.threshold %v out of range (0, 1)", e.Threshold)
	}
	if e.Replicates == 0 {
		e.Replicates = 1
	}
	if e.Replicates < 1 || e.Replicates > maxReplicates {
		return invalidf("experiment.replicates %d out of range [1, %d]", e.Replicates, maxReplicates)
	}
	return nil
}

func (m *SimulationSpec) normalize() error {
	if err := m.Topology.normalize(); err != nil {
		return err
	}
	if err := m.Traffic.normalize(); err != nil {
		return err
	}
	if m.Policy == "" {
		m.Policy = "rcad"
	}
	switch m.Policy {
	case "no-delay":
		if m.Delay != nil {
			return invalidf("simulation.delay must be absent for policy no-delay")
		}
	case "delay-unlimited", "delay-droptail", "rcad":
		if m.Delay == nil {
			m.Delay = &DelaySpec{}
		}
		if err := m.Delay.normalize(); err != nil {
			return err
		}
	default:
		return invalidf("simulation.policy %q unknown (no-delay | delay-unlimited | delay-droptail | rcad)", m.Policy)
	}
	d := experiment.Defaults()
	if m.Capacity == 0 {
		m.Capacity = d.Capacity
	}
	if m.Capacity < 1 || m.Capacity > maxCapacity {
		return invalidf("simulation.capacity %d out of range [1, %d]", m.Capacity, maxCapacity)
	}
	if m.Victim == "" {
		m.Victim = "shortest-remaining"
	}
	switch m.Victim {
	case "shortest-remaining", "longest-remaining", "oldest", "random":
	default:
		return invalidf("simulation.victim %q unknown", m.Victim)
	}
	if m.Tau == 0 {
		m.Tau = d.Tau
	}
	if !(m.Tau > 0) || m.Tau > maxTau {
		return invalidf("simulation.tau %v out of range (0, %g]", m.Tau, float64(maxTau))
	}
	if m.Seed == 0 {
		m.Seed = d.Seed
	}
	if m.Packets == 0 {
		m.Packets = d.Packets
	}
	if m.Packets < 1 || m.Packets > maxPackets {
		return invalidf("simulation.packets %d out of range [1, %d]", m.Packets, maxPackets)
	}
	if m.Adversary == "" {
		m.Adversary = "baseline"
	}
	switch m.Adversary {
	case "baseline", "adaptive", "path-aware":
	default:
		return invalidf("simulation.adversary %q unknown (baseline | adaptive | path-aware)", m.Adversary)
	}
	if m.Threshold == 0 {
		m.Threshold = d.Threshold
	}
	if !(m.Threshold > 0) || m.Threshold >= 1 {
		return invalidf("simulation.threshold %v out of range (0, 1)", m.Threshold)
	}
	if c := m.Channel; c != nil {
		if err := c.Validate(); err != nil {
			return err
		}
		if c.AckLossP > 0 && m.ARQ == nil {
			return invalidf("channel.ack_loss_p requires arq")
		}
	}
	if m.ARQ != nil {
		a := *m.ARQ
		if err := a.normalize(); err != nil {
			return err
		}
		m.ARQ = &a
	}
	if rc := m.RateControl; rc != nil {
		if m.Policy != "rcad" {
			return invalidf("simulation.rate_control requires policy rcad, got %q", m.Policy)
		}
		if err := rc.Validate(); err != nil {
			return err
		}
	}
	if err := m.validateFailures(); err != nil {
		return err
	}
	if m.Replicates == 0 {
		m.Replicates = 1
	}
	if m.Replicates < 1 || m.Replicates > maxReplicates {
		return invalidf("simulation.replicates %d out of range [1, %d]", m.Replicates, maxReplicates)
	}
	return nil
}

// validateFailures checks the failure list against the normalized
// topology's node IDs, which run contiguously from the sink, so it needs no
// topology built. A node fails at most once.
func (m *SimulationSpec) validateFailures() error {
	if len(m.Failures) == 0 {
		if m.RouteRepair {
			return invalidf("simulation.route_repair requires failures")
		}
		return nil
	}
	if len(m.Failures) > maxFailures {
		return invalidf("simulation.failures has %d entries (max %d)", len(m.Failures), maxFailures)
	}
	nodes := m.Topology.nodeCount()
	failed := make(map[int]bool, len(m.Failures))
	for _, f := range m.Failures {
		switch {
		case f.Node == 0:
			return invalidf("simulation.failures: node 0 is the sink")
		case f.Node < 0 || f.Node >= nodes:
			return invalidf("simulation.failures: node %d does not exist (topology %s has nodes 0..%d)", f.Node, m.Topology.Kind, nodes-1)
		case failed[f.Node]:
			return invalidf("simulation.failures: node %d fails twice", f.Node)
		case !(f.At >= 0) || f.At > maxFailureTime:
			return invalidf("simulation.failures: node %d time %v out of range [0, %g]", f.Node, f.At, float64(maxFailureTime))
		}
		failed[f.Node] = true
	}
	return nil
}

// Validate reports whether t is a valid topology, without changing it.
func (t TopologySpec) Validate() error { return t.normalize() }

func (t *TopologySpec) normalize() error {
	if t.Kind != "random" && (t.Nodes != 0 || t.Side != 0 || t.Radius != 0) {
		return invalidf("topology nodes/side/radius apply to kind random only")
	}
	switch t.Kind {
	case "figure1":
		if t.Hops != 0 || t.Width != 0 || t.Height != 0 {
			return invalidf("topology figure1 takes no size parameters")
		}
	case "line":
		if t.Width != 0 || t.Height != 0 {
			return invalidf("topology line takes no width/height")
		}
		if t.Hops == 0 {
			t.Hops = 15
		}
		if t.Hops < 1 || t.Hops > maxHops {
			return invalidf("topology.hops %d out of range [1, %d]", t.Hops, maxHops)
		}
	case "grid":
		if t.Hops != 0 {
			return invalidf("topology grid takes no hops")
		}
		if t.Width == 0 {
			t.Width = 10
		}
		if t.Height == 0 {
			t.Height = 10
		}
		if t.Width < 2 || t.Width > maxGridSide || t.Height < 2 || t.Height > maxGridSide {
			return invalidf("topology grid %dx%d out of range [2, %d]", t.Width, t.Height, maxGridSide)
		}
	case "random":
		if t.Hops != 0 || t.Width != 0 || t.Height != 0 {
			return invalidf("topology random takes nodes, side, radius")
		}
		if t.Nodes == 0 {
			t.Nodes = 150
		}
		if t.Side == 0 {
			t.Side = 10
		}
		if t.Radius == 0 {
			t.Radius = 1.6
		}
		if t.Nodes < 2 || t.Nodes > maxFieldNodes {
			return invalidf("topology.nodes %d out of range [2, %d]", t.Nodes, maxFieldNodes)
		}
		if !(t.Side > 0) || t.Side > maxFieldExtent || !(t.Radius > 0) || t.Radius > maxFieldExtent {
			return invalidf("topology side %v and radius %v must be in (0, %g]", t.Side, t.Radius, float64(maxFieldExtent))
		}
	case "":
		return invalidf("topology.kind is required (figure1 | line | grid | random)")
	default:
		return invalidf("topology.kind %q unknown (figure1 | line | grid | random)", t.Kind)
	}
	return nil
}

// nodeCount returns the normalized topology's node count, the sink
// included.
func (t *TopologySpec) nodeCount() int {
	switch t.Kind {
	case "figure1":
		n := 1 + topology.Figure1TrunkLen
		for _, h := range topology.Figure1HopCounts {
			n += h - topology.Figure1TrunkLen
		}
		return n
	case "line":
		return t.Hops + 1
	case "grid":
		return t.Width * t.Height
	default:
		return t.Nodes + 1
	}
}

func (t *TrafficSpec) normalize() error {
	if t.Kind == "" {
		t.Kind = "periodic"
	}
	switch t.Kind {
	case "periodic":
		if t.Rate != 0 || t.OnMean != 0 || t.OffMean != 0 {
			return invalidf("traffic periodic takes only interval")
		}
		if t.Interval == 0 {
			t.Interval = 2
		}
		if !(t.Interval > 0) || t.Interval > maxTau {
			return invalidf("traffic.interval %v out of range (0, %g]", t.Interval, float64(maxTau))
		}
	case "poisson":
		if t.Interval != 0 || t.OnMean != 0 || t.OffMean != 0 {
			return invalidf("traffic poisson takes only rate")
		}
		if !(t.Rate > 0) || t.Rate > maxTau {
			return invalidf("traffic.rate %v out of range (0, %g]", t.Rate, float64(maxTau))
		}
	case "onoff":
		if t.Interval != 0 {
			return invalidf("traffic onoff takes rate, on_mean, off_mean")
		}
		if !(t.Rate > 0) || t.Rate > maxTau {
			return invalidf("traffic.rate %v out of range (0, %g]", t.Rate, float64(maxTau))
		}
		if !(t.OnMean > 0) || t.OnMean > maxTau || !(t.OffMean > 0) || t.OffMean > maxTau {
			return invalidf("traffic.on_mean/off_mean must be in (0, %g]", float64(maxTau))
		}
		if t.Rate*t.OnMean < minBurstPackets {
			return invalidf("traffic.rate × on_mean %v below %g packets per burst", t.Rate*t.OnMean, minBurstPackets)
		}
	default:
		return invalidf("traffic.kind %q unknown (periodic | poisson | onoff)", t.Kind)
	}
	return nil
}

func (d *DelaySpec) normalize() error {
	if d.Dist == "" {
		d.Dist = "exponential"
	}
	if d.Mean == 0 {
		d.Mean = experiment.Defaults().MeanDelay
	}
	if !(d.Mean > 0) || d.Mean > maxDelayMean {
		return invalidf("delay.mean %v out of range (0, %g]", d.Mean, float64(maxDelayMean))
	}
	switch d.Dist {
	case "exponential", "uniform", "constant":
		if d.Shape != 0 {
			return invalidf("delay.shape only applies to dist pareto")
		}
	case "pareto":
		if d.Shape == 0 {
			d.Shape = 2.5
		}
		if !(d.Shape > 1) {
			return invalidf("delay.shape %v must be > 1", d.Shape)
		}
	default:
		return invalidf("delay.dist %q unknown (exponential | uniform | constant | pareto)", d.Dist)
	}
	return nil
}

// Validate checks the channel's own fields: probabilities in [0, 1],
// Gilbert–Elliott run lengths of at least one transmission, burst
// parameters only with burst, and some loss somewhere. That ack_loss_p
// needs arq is the simulation's rule.
func (c ChannelSpec) Validate() error {
	for name, p := range map[string]float64{
		"loss_p": c.LossP, "burst_loss_p": c.BurstLossP, "ack_loss_p": c.AckLossP,
	} {
		if !(p >= 0) || p > 1 {
			return invalidf("channel.%s %v out of range [0, 1]", name, p)
		}
	}
	for name, run := range map[string]float64{"mean_good_run": c.MeanGoodRun, "mean_burst_len": c.MeanBurstLen} {
		if run != 0 && !(run >= 1) {
			return invalidf("channel.%s %v must be 0 (the default) or >= 1 transmission", name, run)
		}
	}
	if (c.MeanGoodRun != 0 || c.MeanBurstLen != 0 || c.BurstLossP != 0) && !c.Burst {
		return invalidf("channel burst parameters require burst: true")
	}
	if !c.Burst && c.LossP == 0 && c.AckLossP == 0 {
		return invalidf("channel configured with zero loss everywhere; omit it instead")
	}
	return nil
}

// Validate reports whether a is a valid ARQ part, without changing it.
func (a ARQSpec) Validate() error { return a.normalize() }

func (a *ARQSpec) normalize() error {
	if a.MaxRetries == 0 {
		a.MaxRetries = 3
	}
	if a.MaxRetries < 1 || a.MaxRetries > maxARQRetries {
		return invalidf("arq.max_retries %d out of range [1, %d]", a.MaxRetries, maxARQRetries)
	}
	if !(a.Timeout >= 0) || a.Timeout > maxTau {
		return invalidf("arq.timeout %v out of range [0, %g]", a.Timeout, float64(maxTau))
	}
	if a.Backoff == 0 {
		a.Backoff = 2
	}
	if !(a.Backoff >= 1) || a.Backoff > 100 {
		return invalidf("arq.backoff %v out of range [1, 100]", a.Backoff)
	}
	return nil
}

// Validate checks the Erlang-loss target.
func (r RateControlSpec) Validate() error {
	if !(r.TargetLoss > 0) || r.TargetLoss >= 1 {
		return invalidf("rate_control.target_loss %v out of range (0, 1)", r.TargetLoss)
	}
	return nil
}
