package network

// Result types: what a run reports back — sink deliveries with ground
// truth, per-flow and per-node summaries, and the adversary-view
// conversions the privacy experiments consume.

import (
	"errors"

	"tempriv/internal/adversary"
	"tempriv/internal/metrics"
	"tempriv/internal/packet"
)

// Delivery is one packet arrival at the sink: what the adversary can see
// (arrival time, cleartext header) plus the simulator ground truth used for
// scoring.
type Delivery struct {
	// At is the sink arrival time.
	At float64
	// Header is the cleartext header as received.
	Header packet.Header
	// Truth is the simulator-only ground truth.
	Truth packet.Truth
}

// NodeStats summarises one buffering node after a run.
type NodeStats struct {
	// ID is the node.
	ID packet.NodeID
	// HopsToSink is the node's routing depth.
	HopsToSink int
	// Arrivals, Departures, Drops and Preemptions count buffer events.
	Arrivals, Departures, Drops, Preemptions uint64
	// AvgOccupancy is the time-weighted mean number of buffered packets.
	AvgOccupancy float64
	// MaxOccupancy is the peak buffered count.
	MaxOccupancy float64
	// MeanHeldDelay is the mean realised holding time.
	MeanHeldDelay float64
}

// FlowStats summarises one source flow after a run.
type FlowStats struct {
	// Source is the flow's origin node.
	Source packet.NodeID
	// HopCount is the routing-path length to the sink.
	HopCount int
	// Created and Delivered count the flow's packets.
	Created, Delivered uint64
	// Latency summarises end-to-end delivery latency.
	Latency metrics.LatencyReport
}

// Dropped returns the number of the flow's packets lost in the network.
func (f *FlowStats) Dropped() uint64 {
	if f.Created < f.Delivered {
		return 0
	}
	return f.Created - f.Delivered
}

// Result is the outcome of one simulation run. A result from Run is owned
// by the caller: no later run touches it. One that RunBorrowed passes to
// its callback is borrowed: valid only until the callback returns, after
// which the engine cache refills it for a later run.
type Result struct {
	// Deliveries lists sink arrivals in time order.
	Deliveries []Delivery
	// Flows maps each source node to its flow summary.
	Flows map[packet.NodeID]*FlowStats
	// Nodes maps each buffering node to its buffer summary.
	Nodes map[packet.NodeID]*NodeStats
	// Duration is the simulated time at which the last event fired.
	Duration float64
	// Events is the total number of simulation events executed.
	Events uint64
	// SealFailures counts payloads that failed authentication at the sink
	// (always 0 unless the run is corrupted; present as an invariant).
	SealFailures uint64
	// LostToFailures counts packets destroyed by injected node failures:
	// buffer contents at failure time plus packets that later reached a
	// dead node. With RouteRepair the failed node's buffer is re-homed
	// rather than destroyed, so only packets with no surviving route count
	// here.
	LostToFailures uint64
	// LinkDrops counts packets abandoned by the link layer: frames the
	// channel destroyed with no ARQ to recover them, or packets whose ARQ
	// retry budget ran out.
	LinkDrops uint64
	// Retransmissions counts link-layer data-frame retransmissions (ARQ
	// retries after a lost frame, a silent dead receiver, or a lost ACK).
	Retransmissions uint64
	// DuplicatesSuppressed counts sink arrivals discarded because a copy of
	// the same (origin, seq) packet had already been delivered — the
	// ARQ-induced duplicates that must not inflate delivery counts or
	// adversary scores.
	DuplicatesSuppressed uint64
	// Reroutes counts parent reassignments applied by route repair across
	// all injected failures.
	Reroutes uint64

	// spareFlows and spareNodes keep the stats structs of a borrowed
	// result's previous run, for the next run to refill instead of
	// allocating. They stay empty on an owned result.
	spareFlows []*FlowStats
	spareNodes []*NodeStats
}

// recycle readies res for a run whose deliveries are bounded by bound (0
// for a horizon-bound run): Deliveries is emptied, keeping its backing
// array unless that is smaller than bound, the maps are emptied with their
// stats structs kept as spares, and every other field is zeroed. On a
// fresh result it just sizes Deliveries.
func (res *Result) recycle(bound int) {
	for _, f := range res.Flows {
		res.spareFlows = append(res.spareFlows, f)
	}
	for _, n := range res.Nodes {
		res.spareNodes = append(res.spareNodes, n)
	}
	clear(res.Flows)
	clear(res.Nodes)
	deliveries := res.Deliveries[:0]
	if cap(deliveries) < bound {
		deliveries = make([]Delivery, 0, bound)
	}
	*res = Result{
		Deliveries: deliveries,
		Flows:      res.Flows,
		Nodes:      res.Nodes,
		spareFlows: res.spareFlows,
		spareNodes: res.spareNodes,
	}
}

// flowStats returns a spare flow summary, or a new one.
func (res *Result) flowStats() *FlowStats {
	k := len(res.spareFlows)
	if k == 0 {
		return new(FlowStats)
	}
	f := res.spareFlows[k-1]
	res.spareFlows = res.spareFlows[:k-1]
	return f
}

// nodeStats returns a spare node summary, or a new one.
func (res *Result) nodeStats() *NodeStats {
	k := len(res.spareNodes)
	if k == 0 {
		return new(NodeStats)
	}
	n := res.spareNodes[k-1]
	res.spareNodes = res.spareNodes[:k-1]
	return n
}

// DeliveryRatio returns the fraction of created packets that reached the
// sink, across all flows. It is 1 for a run that created nothing.
func (r *Result) DeliveryRatio() float64 {
	var created, delivered uint64
	for _, f := range r.Flows {
		created += f.Created
		delivered += f.Delivered
	}
	if created == 0 {
		return 1
	}
	return float64(delivered) / float64(created)
}

// Score replays the deliveries through est in arrival order and returns its
// mean square error against the ground truth, over all flows and per flow
// (origin node). It reads Deliveries in place, so scoring copies nothing;
// the accumulators are bit-identical to adversary.Score and
// adversary.ScorePerFlow over Observations and Truths.
func (r *Result) Score(est adversary.Estimator) (*metrics.MSE, map[packet.NodeID]*metrics.MSE, error) {
	if est == nil {
		return nil, nil, errors.New("network: nil estimator")
	}
	var all metrics.MSE
	perFlow := make(map[packet.NodeID]*metrics.MSE)
	for i := range r.Deliveries {
		d := &r.Deliveries[i]
		estimate := est.Estimate(adversary.Observation{ArrivalTime: d.At, Header: d.Header})
		all.Add(estimate, d.Truth.CreatedAt)
		m, ok := perFlow[d.Header.Origin]
		if !ok {
			m = &metrics.MSE{}
			perFlow[d.Header.Origin] = m
		}
		m.Add(estimate, d.Truth.CreatedAt)
	}
	return &all, perFlow, nil
}

// Observations converts the deliveries into the adversary's view, in arrival
// order.
func (r *Result) Observations() []adversary.Observation {
	out := make([]adversary.Observation, len(r.Deliveries))
	for i, d := range r.Deliveries {
		out[i] = adversary.Observation{ArrivalTime: d.At, Header: d.Header}
	}
	return out
}

// Truths returns the ground-truth creation times aligned with Observations.
func (r *Result) Truths() []float64 {
	out := make([]float64, len(r.Deliveries))
	for i, d := range r.Deliveries {
		out[i] = d.Truth.CreatedAt
	}
	return out
}
