package network

// Sink layer: records arrivals for the adversary tap and the ground-truth
// scoring, suppresses ARQ-induced duplicates, and computes the per-flow and
// per-node summaries once the event list has drained.

import (
	"tempriv/internal/buffer"
	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
)

// arriveAtSink records a delivery and its ground truth, discarding
// ARQ-induced duplicates of already delivered packets.
func (r *runner) arriveAtSink(p *packet.Packet) {
	now := r.sched.Now()
	if r.dedup != nil {
		key := uint64(p.Header.Origin)<<32 | uint64(p.Header.RoutingSeq)
		if _, dup := r.dedup[key]; dup {
			r.result.DuplicatesSuppressed++
			r.tele.onDuplicate()
			r.record(trace.Duplicate, topology.Sink, p)
			return
		}
		r.dedup[key] = struct{}{}
	}
	if r.keyring != nil {
		reading, err := p.OpenReading(r.keyring)
		if err != nil || reading.CreatedAt != p.Truth.CreatedAt {
			r.result.SealFailures++
		}
	}
	r.tele.onDelivered(now - p.Truth.CreatedAt)
	r.record(trace.Delivered, topology.Sink, p)
	r.result.Deliveries = append(r.result.Deliveries, Delivery{
		At:     now,
		Header: p.Header,
		Truth:  p.Truth,
	})
}

// finalize computes the per-flow and per-node summaries once the event list
// has drained.
func (r *runner) finalize() {
	res := r.result
	res.Duration = r.sched.Now()
	res.Events = r.sched.Fired()

	// Count each flow's deliveries first, so its latency samples are
	// allocated once at their final size. Add still runs in delivery
	// order, so every percentile and moment is unchanged.
	for i := range res.Deliveries {
		if fs, ok := res.Flows[res.Deliveries[i].Truth.Flow]; ok {
			fs.Delivered++ // deliveries only come from declared sources
		}
	}
	latencies := make(map[packet.NodeID]*metrics.Latency, len(res.Flows))
	for flow, fs := range res.Flows {
		if fs.Delivered > 0 {
			l := &metrics.Latency{}
			l.Grow(int(fs.Delivered))
			latencies[flow] = l
		}
	}
	for i := range res.Deliveries {
		d := &res.Deliveries[i]
		if l := latencies[d.Truth.Flow]; l != nil {
			l.Add(d.At - d.Truth.CreatedAt)
		}
	}
	for flow, l := range latencies {
		res.Flows[flow].Latency = l.Report()
	}

	for _, n := range r.nodes {
		var st *buffer.Stats
		switch {
		case n == nil:
			continue // the sink or an unused ID
		case n.rcad != nil:
			st = n.rcad.Stats()
		case n.policy != nil:
			st = n.policy.Stats()
		default:
			continue // PolicyForward keeps no buffer state
		}
		hops, _ := r.routes.HopCount(n.id)
		res.Nodes[n.id] = &NodeStats{
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
	}
}
