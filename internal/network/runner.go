package network

// Runner: config validation, per-node state construction, and the run loop
// that glues the source, policy, link, sink and failure layers together.

import (
	"errors"
	"fmt"

	"tempriv/internal/buffer"
	"tempriv/internal/core"
	"tempriv/internal/delay"
	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/routing"
	"tempriv/internal/seal"
	"tempriv/internal/sim"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
)

// node is the per-node simulation state.
type node struct {
	id     packet.NodeID
	parent packet.NodeID
	// policy buffers the node's admitted packets: a *buffer.Preemptive
	// under PolicyRCAD, and nil under PolicyForward, which transmits
	// inline.
	policy buffer.Policy
	// ctrl re-plans the mean delay from the observed arrival rate (§4); it
	// is non-nil only on a rate-controlled RCAD node.
	ctrl *core.RateController
	dist delay.Distribution
	src  *rng.Source
	// victim is an RCAD node's "victim" substream of src, which its
	// preemptive buffer picks victims from. draw is the stream delay
	// draws from: &victim under PolicyRCAD, so an RCAD node draws each
	// packet's delay and then, inside Admit, its victim pick from one
	// stream, and src under every other policy.
	victim rng.Source
	draw   *rng.Source
	link   *linkChannel // nil when Config.Channel is nil (reliable link)
	dead   bool
	// parent0 is the routing parent the build assigned, restored by rearm so
	// a route repair in one run never leaks into the next.
	parent0 packet.NodeID
	// lat collects the latencies of the flow this node sources; finalize
	// resets and refills it each run, so its samples are allocated once.
	lat metrics.Latency
	// delivered has one bit per sequence number of the flow this node
	// sources, set when that packet reaches the sink: the sink's ARQ
	// duplicate filter. rearm empties it.
	delivered []uint64
}

// runner holds one simulation's full state.
type runner struct {
	cfg    Config
	sched  *sim.Scheduler
	routes *routing.Table
	// nodes is indexed by NodeID and sized to the largest ID + 1; the
	// sink's entry and unused IDs are nil. Every whole-network visit
	// (rearm, route repair, finalize, sampling) ranges over it skipping
	// the nils, so custom-policy factories, repair re-parenting and
	// per-node summaries always see the nodes in ID order.
	nodes   []*node
	keyring *seal.Keyring
	result  *Result
	// dead collects failed nodes so each route repair excludes every death
	// so far, not just the latest.
	dead map[packet.NodeID]bool
	// flights recycles the in-flight frame records of the link layer so the
	// per-hop fast path never allocates. See link.go.
	flights []*flight
	// arena bump-allocates the run's packets from reusable slabs; rearm
	// rewinds it, so a reused engine creates packets without touching the
	// heap. See engine.go.
	arena pktArena
	// tele is the telemetry attachment; nil when Config.Telemetry is nil.
	tele *telemetryState
	// id is the construction config's structural identity, which every
	// run's config must share.
	id structure
}

// Run validates cfg, builds a runner for it and runs the simulation once to
// completion. The result belongs to the caller. Every run — this one or one
// on a runner an EngineCache reuses — flows through the identical
// rearm-and-go path, which is what makes engine reuse byte-identical by
// construction.
func Run(cfg Config) (*Result, error) {
	resolved, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	id := structureOf(&resolved)
	r, err := newRunner(resolved, id)
	if err != nil {
		return nil, err
	}
	return r.runResolved(resolved, id, nil)
}

// resolveConfig validates cfg and fills its defaults, returning the resolved
// copy every engine run adopts. It is idempotent: resolving an already
// resolved config is a no-op.
func resolveConfig(cfg Config) (Config, error) {
	if cfg.Topology == nil {
		return cfg, errors.New("network: nil topology")
	}
	if len(cfg.Sources) == 0 {
		return cfg, errors.New("network: no sources")
	}
	switch cfg.Policy {
	case PolicyForward:
	case PolicyUnlimited, PolicyDropTail, PolicyRCAD:
		if cfg.Delay == nil {
			return cfg, fmt.Errorf("network: policy %v requires a delay distribution", cfg.Policy)
		}
	case PolicyCustom:
		if cfg.CustomPolicy == nil {
			return cfg, errors.New("network: PolicyCustom requires a CustomPolicy factory")
		}
		if cfg.Delay == nil {
			cfg.Delay = delay.None{} // batching mixes ignore sampled delays
		}
	default:
		return cfg, fmt.Errorf("network: unknown policy %d", int(cfg.Policy))
	}
	if cfg.TransmissionDelay < 0 {
		return cfg, fmt.Errorf("network: negative transmission delay %v", cfg.TransmissionDelay)
	}
	if cfg.Horizon < 0 {
		return cfg, fmt.Errorf("network: negative horizon %v", cfg.Horizon)
	}
	if err := cfg.Telemetry.Validate(); err != nil {
		return cfg, fmt.Errorf("network: %w", err)
	}
	seenSources := make(map[packet.NodeID]bool, len(cfg.Sources))
	for i, s := range cfg.Sources {
		if !cfg.Topology.HasNode(s.Node) {
			return cfg, fmt.Errorf("network: source %d at unknown node %v", i, s.Node)
		}
		if seenSources[s.Node] {
			// Flow identity is the origin node (the adversary's view), so
			// two sources on one node would merge their flow accounting
			// silently.
			return cfg, fmt.Errorf("network: duplicate source on node %v", s.Node)
		}
		seenSources[s.Node] = true
		if s.Node == topology.Sink {
			return cfg, fmt.Errorf("network: source %d is the sink", i)
		}
		if s.Process == nil {
			return cfg, fmt.Errorf("network: source %d has nil traffic process", i)
		}
		if s.Count < 0 {
			return cfg, fmt.Errorf("network: source %d has negative count", i)
		}
		if s.Count == 0 && cfg.Horizon <= 0 {
			return cfg, fmt.Errorf("network: source %d is unbounded (count 0) without a horizon", i)
		}
	}
	if cfg.RateControl != nil {
		if cfg.Policy != PolicyRCAD {
			return cfg, errors.New("network: rate control requires PolicyRCAD")
		}
	}
	for i, f := range cfg.NodeFailures {
		if !cfg.Topology.HasNode(f.Node) {
			return cfg, fmt.Errorf("network: failure %d targets unknown node %v", i, f.Node)
		}
		if f.Node == topology.Sink {
			return cfg, fmt.Errorf("network: failure %d targets the sink", i)
		}
		if f.At < 0 {
			return cfg, fmt.Errorf("network: failure %d has negative time %v", i, f.At)
		}
	}

	if cfg.TransmissionDelay == 0 {
		cfg.TransmissionDelay = 1
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = core.DefaultCapacity
	}
	if cfg.Victim == nil {
		cfg.Victim = buffer.ShortestRemaining{}
	}
	if cfg.ARQ != nil {
		resolved, err := cfg.ARQ.validate(cfg.TransmissionDelay)
		if err != nil {
			return cfg, err
		}
		cfg.ARQ = &resolved
	}
	if cfg.Channel != nil {
		resolved, err := cfg.Channel.validate(cfg.ARQ != nil)
		if err != nil {
			return cfg, err
		}
		cfg.Channel = &resolved
	}
	return cfg, nil
}

// newRunner builds the structure of an engine from an already resolved
// config whose structural identity is id: routes, nodes in ID order, and
// the reusable pools. It arms nothing; rearm adopts every run's state, the
// first run's included.
func newRunner(cfg Config, id structure) (*runner, error) {
	routes, err := routing.BuildTree(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("network: building routes: %w", err)
	}

	ids := cfg.Topology.Nodes() // ascending, so the last is the largest
	r := &runner{
		sched:  sim.NewScheduler(),
		routes: routes,
		nodes:  make([]*node, int(ids[len(ids)-1])+1),
		dead:   make(map[packet.NodeID]bool),
		id:     id,
	}
	for _, id := range ids {
		if id == topology.Sink {
			continue
		}
		parent, ok := routes.NextHop(id)
		if !ok {
			return nil, fmt.Errorf("network: node %v has no route to the sink", id)
		}
		r.nodes[id] = &node{id: id, parent0: parent, src: new(rng.Source)}
	}
	return r, nil
}

// record is recordLink for an event with no far end.
func (r *runner) record(kind trace.Kind, node packet.NodeID, p *packet.Packet) {
	r.recordLink(kind, node, 0, p)
}

// recordLink is the one observer call of a packet lifecycle event: it
// counts the event on the live telemetry counters, if attached, and hands
// it to the tracer, if any. dest names the far end of a link-layer event.
func (r *runner) recordLink(kind trace.Kind, node, dest packet.NodeID, p *packet.Packet) {
	now := r.sched.Now()
	if r.tele != nil {
		r.tele.count(kind, now-p.Truth.CreatedAt)
	}
	if r.cfg.Tracer == nil {
		return
	}
	r.cfg.Tracer.Record(trace.Event{
		At:   now,
		Kind: kind,
		Node: node,
		Flow: p.Truth.Flow,
		Seq:  p.Truth.Seq,
		Dest: dest,
	})
}
