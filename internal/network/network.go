// Package network assembles topology, routing, traffic and buffering —
// RCAD's preemptive buffers, optionally with the §4 rate controller — into
// a runnable simulated sensor network: the event-driven simulator of §5.
//
// The simulation model follows §5.2: PHY and MAC are abstracted to a
// constant per-hop transmission delay τ (1 time unit by default); every
// non-sink node on a packet's routing path draws an independent buffering
// delay from its configured distribution before forwarding; the sink records
// arrivals. Payload sealing (AES-CTR + HMAC) can be enabled to run the §2
// confidentiality assumption end-to-end.
//
// Beyond the paper's perfectly reliable links, the simulator models a fault
// -tolerant delivery layer: per-link frame loss (Bernoulli or Gilbert–
// Elliott bursts, Config.Channel), link-layer ARQ with capped exponential
// backoff (Config.ARQ), duplicate suppression at the sink, and route repair
// around injected node failures (Config.RouteRepair). All of it draws from
// dedicated per-link random substreams, so the reliable path of a run is
// bit-identical whether or not these features are compiled into the config
// with zero loss.
//
// A Run is fully deterministic in (Config, Seed): every node draws from its
// own labelled substream of the master seed.
//
// The implementation is layered, one file per layer, mirroring a packet's
// life:
//
//	source.go  — packet creation and interarrival arming (sourceState)
//	policy.go  — per-node buffering policy attachment and admission
//	link.go    — per-hop transmission: channel loss, ARQ retries, duplicates
//	sink.go    — arrival recording, duplicate suppression, final summaries
//	failure.go — injected node deaths and route repair
//	runner.go  — validation, node construction, and the run loop gluing the
//	             layers together
//
// The per-hop fast path is allocation-free: in-flight frames ride pooled
// flight records with pre-bound callbacks (link.go), so a lossless forwarded
// hop costs two pool pops and zero heap allocations.
package network

import (
	"fmt"

	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
	"tempriv/internal/traffic"
)

// PolicyKind selects the buffering behaviour of every node in the network,
// matching the three evaluation cases of §5.3 plus the analytic drop model
// of §4.
type PolicyKind int

const (
	// PolicyForward forwards packets immediately with no buffering delay —
	// evaluation case 1 ("NoDelay").
	PolicyForward PolicyKind = iota + 1
	// PolicyUnlimited delays every packet for its full sampled time with
	// unbounded buffers — evaluation case 2 ("Delay&UnlimitedBuffers").
	PolicyUnlimited
	// PolicyDropTail delays packets with a finite buffer that drops
	// arrivals when full — the M/M/k/k model of §4.
	PolicyDropTail
	// PolicyRCAD delays packets with a finite buffer that preempts the
	// victim packet when full — evaluation case 3
	// ("Delay&LimitedBuffers", §5).
	PolicyRCAD
	// PolicyCustom installs the buffering policy built by
	// Config.CustomPolicy on every node — the extension point used by the
	// mix-network comparators (package mix) and available to downstream
	// users.
	PolicyCustom
)

// String returns the report identifier of the policy.
func (k PolicyKind) String() string {
	switch k {
	case PolicyForward:
		return "no-delay"
	case PolicyUnlimited:
		return "delay-unlimited"
	case PolicyDropTail:
		return "delay-droptail"
	case PolicyRCAD:
		return "rcad"
	case PolicyCustom:
		return "custom"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// PolicyByName returns the built-in policy kind whose String is name:
// "no-delay", "delay-unlimited", "delay-droptail" or "rcad". It rejects
// "custom", which needs a CustomPolicy factory, and unknown names.
func PolicyByName(name string) (PolicyKind, error) {
	for k := PolicyForward; k < PolicyCustom; k++ { // the built-ins precede PolicyCustom
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("network: unknown policy %q", name)
}

// Source declares one traffic source.
type Source struct {
	// Node is the source's node ID; it must exist in the topology.
	Node packet.NodeID
	// Process generates the source's packet interarrival times.
	Process traffic.Process
	// Count is the number of packets to create. Zero means "until the
	// horizon", which then must be positive.
	Count int
}

// RateControl enables the §4 per-node µ-planner on every buffering node.
type RateControl struct {
	// TargetLoss is the Erlang-loss design target α (the paper discusses
	// 0.1).
	TargetLoss float64
	// Smoothing is the EWMA weight for rate estimation, in (0, 1].
	Smoothing float64
}

// Config describes one simulation run.
type Config struct {
	// Topology is the deployment. Required and must be sink-connected.
	Topology *topology.Topology
	// Sources declare the traffic. Required, non-empty.
	Sources []Source
	// Policy selects the buffering behaviour. Required.
	Policy PolicyKind
	// Delay is the per-hop buffering-delay distribution, required for every
	// policy except PolicyForward. The paper's evaluation uses
	// exponential with mean 30.
	Delay delay.Distribution
	// PerNodeDelay overrides Delay for specific nodes (used by the §3.3
	// delay-decomposition experiments and the Erlang planner example).
	PerNodeDelay map[packet.NodeID]delay.Distribution
	// Capacity is the buffer size k for PolicyDropTail and PolicyRCAD.
	// Defaults to core.DefaultCapacity (10, the Mica-2 approximation).
	Capacity int
	// Victim is the RCAD victim-selection rule. Defaults to
	// buffer.ShortestRemaining, the paper's rule.
	Victim buffer.VictimSelector
	// CustomPolicy builds each node's buffering policy when Policy is
	// PolicyCustom. Every run calls it once per buffering node, in node-ID
	// order, with that node's forward function and private random
	// substream. The calls come after the scheduler is reset and before
	// any source is armed, so a policy may arm timers when it is built.
	// When Delay is nil, custom policies receive zero sampled delays
	// (appropriate for batching mixes, which ignore them). A policy must
	// not read a packet after passing it to forward: once the packet
	// reaches the sink, the engine reuses its memory for a new packet.
	CustomPolicy func(sched *sim.Scheduler, forward buffer.Forward, src *rng.Source) (buffer.Policy, error)
	// RateControl optionally enables per-node delay planning (§4).
	RateControl *RateControl
	// TransmissionDelay is τ, the per-hop transmission time. Defaults to 1
	// (§5.2).
	TransmissionDelay float64
	// Horizon stops packet generation at this simulated time; 0 means
	// "generate exactly Count packets per source". In-flight packets always
	// drain completely.
	Horizon float64
	// Seed drives all randomness. Runs with equal configs and seeds are
	// identical.
	Seed uint64
	// Channel models unreliable links; nil means perfectly reliable links
	// (the paper's assumption). See ChannelConfig.
	Channel *ChannelConfig
	// ARQ enables per-hop acknowledge/retransmit recovery of lost frames;
	// nil disables it, making every lost frame a lost packet. See ARQConfig.
	ARQ *ARQConfig
	// RouteRepair rebuilds the routing tree around dead nodes when a
	// NodeFailure fires: survivors re-parent onto live routes and the dead
	// node's buffered packets are handed to its successor instead of being
	// destroyed. Without it, routing is static and flows through a dead
	// node stay cut off forever.
	RouteRepair bool
	// NodeFailures schedules permanent node deaths (failure injection).
	NodeFailures []NodeFailure
	// Tracer optionally receives per-packet lifecycle events (creation,
	// per-hop admission and release, delivery, loss). See package trace.
	Tracer trace.Recorder
	// Telemetry optionally attaches the run-observability layer: live
	// metrics into Telemetry.Registry and, when Telemetry.SampleEvery and
	// Telemetry.Emitter are set, a sim-time sampler streaming queue-state
	// snapshots. Nil disables telemetry at near-zero cost. Telemetry never
	// touches the RNG, so enabling it does not perturb the simulated
	// outcome.
	Telemetry *telemetry.Config
	// Seal, when true, encrypts every payload with the network keyring and
	// verifies it at the sink (slower; the privacy results do not depend
	// on it, only the §2 threat model's realism).
	Seal bool
}

// NodeFailure schedules a permanent node death — modelling sensor
// exhaustion or destruction. By default routing is static (the paper's
// tree): the node's buffered packets are lost at time At and every packet
// subsequently reaching it is lost, so flows through a dead node are cut
// off. With Config.RouteRepair the tree is rebuilt around the dead node,
// survivors re-parent, and the victim's buffer is handed to its successor.
type NodeFailure struct {
	// Node is the failing node; it must exist and must not be the sink.
	Node packet.NodeID
	// At is the failure time (>= 0).
	At float64
}
