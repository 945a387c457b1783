package network

// Sink layer: records arrivals for the adversary tap and the ground-truth
// scoring, suppresses ARQ-induced duplicates, and computes the per-flow and
// per-node summaries once the event list has drained.

import (
	"tempriv/internal/packet"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
)

// arriveAtSink records a delivery and its ground truth, discarding
// ARQ-induced duplicates of already delivered packets. Either way the
// packet's run is over, so it goes back to the arena.
func (r *runner) arriveAtSink(p *packet.Packet) {
	defer r.arena.release(p)
	now := r.sched.Now()
	// Duplicates exist only when a delivered frame can be retransmitted,
	// i.e. under ARQ; a reliable or ARQ-less run needs no filter.
	if r.cfg.ARQ != nil && r.nodes[p.Header.Origin].markDelivered(p.Header.RoutingSeq) {
		r.result.DuplicatesSuppressed++
		r.record(trace.Duplicate, topology.Sink, p)
		return
	}
	if r.keyring != nil {
		reading, err := p.OpenReading(r.keyring)
		if err != nil || reading.CreatedAt != p.Truth.CreatedAt {
			r.result.SealFailures++
		}
	}
	r.record(trace.Delivered, topology.Sink, p)
	r.result.Deliveries = append(r.result.Deliveries, Delivery{
		At:     now,
		Header: p.Header,
		Truth:  p.Truth,
	})
}

// markDelivered records that packet seq of the flow n sources reached the
// sink, and reports whether it already had. Each source numbers its
// packets densely from 0, so one bit per packet suffices.
func (n *node) markDelivered(seq uint32) bool {
	w, bit := int(seq/64), uint64(1)<<(seq%64)
	for len(n.delivered) <= w {
		n.delivered = append(n.delivered, 0)
	}
	dup := n.delivered[w]&bit != 0
	n.delivered[w] |= bit
	return dup
}

// finalize computes the per-flow and per-node summaries once the event list
// has drained.
func (r *runner) finalize() {
	res := r.result
	res.Duration = r.sched.Now()
	res.Events = r.sched.Fired()
	if len(res.Deliveries) == 0 && r.cfg.Horizon > 0 {
		// A fresh result's horizon-bound log is nil until something is
		// delivered; a refilled one, which kept its backing array, must
		// read the same.
		res.Deliveries = nil
	}

	// Each flow's latencies go into its source node's buffer, which is
	// kept across runs and reset here with room for every packet the flow
	// created. The adds run in delivery order, so every percentile and
	// moment equals a fresh accumulator's.
	for flow, fs := range res.Flows {
		r.nodes[flow].lat.Reset(int(fs.Created))
	}
	for i := range res.Deliveries {
		d := &res.Deliveries[i]
		if fs, ok := res.Flows[d.Truth.Flow]; ok { // deliveries only come from declared sources
			fs.Delivered++
			r.nodes[d.Truth.Flow].lat.Add(d.At - d.Truth.CreatedAt)
		}
	}
	for flow, fs := range res.Flows {
		if fs.Delivered > 0 {
			fs.Latency = r.nodes[flow].lat.Report()
		}
	}

	for _, n := range r.nodes {
		if n == nil || n.policy == nil {
			continue // the sink, an unused ID, or PolicyForward's bufferless node
		}
		st := n.policy.Stats()
		hops, _ := r.routes.HopCount(n.id)
		ns := res.nodeStats()
		*ns = NodeStats{
			ID:            n.id,
			HopsToSink:    hops,
			Arrivals:      st.Arrivals,
			Departures:    st.Departures,
			Drops:         st.Drops,
			Preemptions:   st.Preemptions,
			AvgOccupancy:  st.Occupancy.Average(res.Duration),
			MaxOccupancy:  st.Occupancy.Max(),
			MeanHeldDelay: st.HeldDelays.Mean(),
		}
		res.Nodes[n.id] = ns
	}
}
