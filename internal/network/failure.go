package network

// Failure layer: injected node deaths and the optional route repair that
// re-parents survivors and re-homes the dead node's buffer. All of this is
// the rare path — it keeps ordinary closures rather than pooled callbacks.

import (
	"tempriv/internal/packet"
	"tempriv/internal/routing"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
)

// scheduleFailures arms the injected node deaths.
func (r *runner) scheduleFailures() {
	for _, f := range r.cfg.NodeFailures {
		n := r.nodes[f.Node]
		r.sched.At(f.At, func() { r.failNode(n) })
	}
}

// failNode kills n: its buffered packets are evacuated and, depending on
// Config.RouteRepair, either destroyed (the static-routing model) or
// re-homed onto the repaired tree.
func (r *runner) failNode(n *node) {
	n.dead = true
	r.dead[n.id] = true
	var evacuated []*packet.Packet
	if ev, ok := n.policy.(evacuator); ok {
		evacuated = ev.Evacuate()
	}
	if !r.cfg.RouteRepair {
		r.loseToFailure(n.id, evacuated)
		return
	}
	r.repairRoutes(n, evacuated)
}

// loseToFailure counts and traces packets destroyed by a node death.
func (r *runner) loseToFailure(at packet.NodeID, packets []*packet.Packet) {
	r.result.LostToFailures += uint64(len(packets))
	for _, p := range packets {
		r.record(trace.Lost, at, p)
	}
}

// repairRoutes rebuilds the routing tree without the dead nodes, re-parents
// every survivor whose parent changed, and hands the failed node's buffered
// packets to its successor instead of destroying them. Survivors are visited
// in ID order and the rebuild tie-breaks exactly like the original BFS, so
// repair is deterministic in (Config, Seed).
func (r *runner) repairRoutes(failed *node, evacuated []*packet.Packet) {
	rebuilt := routing.BuildTreeAvoiding(r.cfg.Topology, r.dead)

	for _, n := range r.nodes {
		if n == nil || n.dead {
			continue
		}
		parent, ok := rebuilt.NextHop(n.id)
		if !ok || parent == n.parent {
			// A survivor the failure orphaned keeps its stale parent: its
			// traffic dies at the dead node exactly as without repair.
			continue
		}
		n.parent = parent
		r.result.Reroutes++
		if r.cfg.Tracer != nil {
			r.cfg.Tracer.Record(trace.Event{
				At: r.sched.Now(), Kind: trace.Rerouted, Node: n.id, Dest: parent,
			})
		}
	}

	if len(evacuated) == 0 {
		return
	}
	succ, ok := r.successor(failed, rebuilt)
	if !ok {
		// No surviving routed neighbor: the buffer is unreachable and lost.
		r.loseToFailure(failed.id, evacuated)
		return
	}
	// Hand each buffered packet to the successor, one transmission delay
	// away — the failure-time offload of route-maintenance protocols.
	for _, p := range evacuated {
		p := p
		p.Forward(failed.id)
		r.sched.After(r.cfg.TransmissionDelay, func() {
			if succ == topology.Sink {
				r.arriveAtSink(p)
				return
			}
			r.deliver(r.nodes[succ], p)
		})
	}
}

// successor picks the failed node's handoff target: its alive neighbor
// closest to the sink in the rebuilt tree, ties toward the smaller ID — the
// parent the node itself would have received had it survived.
func (r *runner) successor(failed *node, rebuilt *routing.Table) (packet.NodeID, bool) {
	var best packet.NodeID
	bestHops := -1
	for _, m := range r.cfg.Topology.Neighbors(failed.id) {
		if r.dead[m] {
			continue
		}
		h, ok := rebuilt.HopCount(m)
		if !ok {
			continue
		}
		if bestHops == -1 || h < bestHops || (h == bestHops && m < best) {
			best, bestHops = m, h
		}
	}
	return best, bestHops >= 0
}
