package scenario

import (
	"fmt"

	"tempriv/internal/adversary"
	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/network"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/routing"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

// rateSmoothing is the rate controller's arrival-rate smoothing factor.
const rateSmoothing = 0.3

// maxPlacements bounds how many consecutive seeds a random field is placed
// from before the spec's density is judged unworkable.
const maxPlacements = 10

// Compiled is a simulation spec compiled for the engine.
type Compiled struct {
	// Config runs the spec's seed. A replicate sets Config.Seed; a caller
	// attaches its own observers (Tracer, Telemetry). Its traffic
	// processes may keep state between packets (on-off does), so a
	// compiled on-off config runs once.
	Config network.Config
	// Sources are the flows' source nodes in report order: S1, S2, ….
	Sources []packet.NodeID

	spec *SimulationSpec
}

// Compile compiles a normalized simulation spec (see Spec.Normalize): it
// is the one place a simulation description becomes a network.Config. A
// random field is placed here, from the spec's seed, so every replicate of
// the spec runs on the same field; a field that stays disconnected after
// every placement is an error wrapping topology.ErrDisconnected.
func Compile(m *SimulationSpec) (*Compiled, error) {
	topo, sources, err := m.Topology.build(m.Seed)
	if err != nil {
		return nil, err
	}
	proc, err := m.Traffic.build()
	if err != nil {
		return nil, err
	}
	policy, err := network.PolicyByName(m.Policy) // normalize has rejected unknown names
	if err != nil {
		return nil, err
	}
	cfg := network.Config{
		Topology:          topo,
		Policy:            policy,
		Capacity:          m.Capacity,
		TransmissionDelay: m.Tau,
		Seed:              m.Seed,
		Seal:              m.Seal,
		RouteRepair:       m.RouteRepair,
	}
	if m.Delay != nil {
		if m.Delay.Dist == "pareto" {
			cfg.Delay, err = delay.NewPareto(m.Delay.Mean, m.Delay.Shape)
		} else {
			cfg.Delay, err = delay.ByName(m.Delay.Dist, m.Delay.Mean)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: delay: %w", err)
		}
	}
	cfg.Victim, err = buffer.SelectorByName(m.Victim)
	if err != nil {
		return nil, fmt.Errorf("scenario: victim: %w", err)
	}
	if rc := m.RateControl; rc != nil {
		cfg.RateControl = &network.RateControl{TargetLoss: rc.TargetLoss, Smoothing: rateSmoothing}
	}
	if c := m.Channel; c != nil {
		cfg.Channel = &network.ChannelConfig{
			LossP:        c.LossP,
			Burst:        c.Burst,
			BurstLossP:   c.BurstLossP,
			MeanGoodRun:  c.MeanGoodRun,
			MeanBurstLen: c.MeanBurstLen,
			AckLossP:     c.AckLossP,
		}
	}
	if a := m.ARQ; a != nil {
		cfg.ARQ = &network.ARQConfig{MaxRetries: a.MaxRetries, Timeout: a.Timeout, Backoff: a.Backoff}
	}
	for _, f := range m.Failures {
		cfg.NodeFailures = append(cfg.NodeFailures, network.NodeFailure{Node: packet.NodeID(f.Node), At: f.At})
	}
	for _, s := range sources {
		cfg.Sources = append(cfg.Sources, network.Source{Node: s, Process: proc, Count: m.Packets})
	}
	return &Compiled{Config: cfg, Sources: sources, spec: m}, nil
}

// Estimator builds the spec's adversary for one run. An estimator measures
// the arrivals of the run it scores (the adaptive and path-aware ones keep
// per-flow rate trackers), so every run gets its own.
func (c *Compiled) Estimator() (adversary.Estimator, error) {
	m := c.spec
	known := 0.0
	if c.Config.Policy != network.PolicyForward && m.Delay != nil {
		known = m.Delay.Mean
	}
	if known == 0 {
		// Against a non-delaying network every adversary degenerates to the
		// baseline with zero assumed buffering delay.
		return adversary.NewBaseline(m.Tau, 0)
	}
	switch m.Adversary {
	case "baseline":
		return adversary.NewBaseline(m.Tau, known)
	case "adaptive":
		return adversary.NewAdaptive(m.Tau, known, m.Capacity, m.Threshold)
	case "path-aware":
		routes, err := routing.BuildTree(c.Config.Topology)
		if err != nil {
			return nil, fmt.Errorf("scenario: routing: %w", err)
		}
		paths, err := routes.FlowPaths(c.Config.Topology.Sources())
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		return adversary.NewPathAware(m.Tau, known, m.Capacity, m.Threshold, paths)
	default:
		return nil, invalidf("simulation.adversary %q unknown", m.Adversary)
	}
}

// build constructs the normalized topology and marks its sources: Figure
// 1's four, a line's far end, a grid's far corner, and a random field's
// node farthest from the sink. seed places a random field.
func (t *TopologySpec) build(seed uint64) (*topology.Topology, []packet.NodeID, error) {
	var topo *topology.Topology
	var err error
	far := packet.NodeID(0)
	switch t.Kind {
	case "figure1":
		var sources []packet.NodeID
		if topo, sources, err = topology.Figure1(); err != nil {
			return nil, nil, fmt.Errorf("scenario: topology: %w", err)
		}
		return topo, sources, nil
	case "line":
		if topo, err = topology.Line(t.Hops); err != nil {
			return nil, nil, fmt.Errorf("scenario: topology: %w", err)
		}
		return topo, topo.Sources(), nil
	case "grid":
		if topo, err = topology.Grid(t.Width, t.Height); err != nil {
			return nil, nil, fmt.Errorf("scenario: topology: %w", err)
		}
		far = topology.GridID(t.Width, t.Width-1, t.Height-1)
	case "random":
		// Sparse samples can be disconnected, so consecutive seeds are
		// tried; the bound keeps a hopeless density from trying forever.
		for attempt := uint64(0); attempt < maxPlacements; attempt++ {
			if topo, err = topology.RandomGeometric(t.Nodes, t.Side, t.Radius, rng.New(seed+attempt)); err == nil {
				break
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: random field stayed disconnected after %d placements (%d nodes, side %g, radius %g): %w",
				maxPlacements, t.Nodes, t.Side, t.Radius, err)
		}
		best := -1.0
		for _, id := range topo.Nodes() {
			p, err := topo.PositionOf(id)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: topology: %w", err)
			}
			if d := p.Distance(topology.Position{}); d > best {
				best, far = d, id
			}
		}
	default:
		return nil, nil, invalidf("topology.kind %q unknown", t.Kind)
	}
	if err := topo.MarkSource(far); err != nil {
		return nil, nil, fmt.Errorf("scenario: topology: %w", err)
	}
	return topo, topo.Sources(), nil
}

func (t *TrafficSpec) build() (traffic.Process, error) {
	switch t.Kind {
	case "periodic":
		return traffic.NewPeriodic(t.Interval)
	case "poisson":
		return traffic.NewPoisson(t.Rate)
	case "onoff":
		return traffic.NewOnOff(t.Rate, t.OnMean, t.OffMean)
	default:
		return nil, invalidf("traffic.kind %q unknown", t.Kind)
	}
}
