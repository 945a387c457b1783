package network

// Link layer: moves a packet one hop toward the sink. The frame crosses the
// (possibly lossy) channel in τ time units; with ARQ enabled, lost frames
// are retransmitted with capped exponential backoff, and a lost ACK spawns
// the duplicate copy the sink later suppresses. The channel model itself
// lives in channel.go.
//
// In-flight frames ride pooled flight records whose arrive/retry callbacks
// are bound once at construction, so the per-hop fast path — transmit,
// attempt, arrival — schedules only pre-existing func values and performs
// zero heap allocations on a lossless hop. TestForwardHopAllocationFree
// gates this.

import (
	"tempriv/internal/packet"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
)

// flight is one frame in transit: the sending node, the packet, the
// destination captured at send time, and the attempt number. arriveFn and
// retryFn are method values bound once when the flight is first allocated;
// releasing a flight back to the pool keeps them, so a recycled flight
// reschedules without allocating.
type flight struct {
	r        *runner
	n        *node
	p        *packet.Packet
	dest     packet.NodeID
	try      int
	arriveFn func()
	retryFn  func()
}

// acquireFlight pops a recycled flight or mints a new one with its
// callbacks bound.
func (r *runner) acquireFlight(n *node, p *packet.Packet, dest packet.NodeID, try int) *flight {
	var f *flight
	if k := len(r.flights); k > 0 {
		f = r.flights[k-1]
		r.flights[k-1] = nil
		r.flights = r.flights[:k-1]
	} else {
		f = &flight{r: r}
		f.arriveFn = f.arrive
		f.retryFn = f.retry
	}
	f.n, f.p, f.dest, f.try = n, p, dest, try
	return f
}

// releaseFlight returns f to the pool. The packet reference is dropped so a
// pooled flight never pins a delivered packet live.
func (r *runner) releaseFlight(f *flight) {
	f.n, f.p = nil, nil
	r.flights = append(r.flights, f)
}

// transmit moves a packet one hop from n toward the sink through the link
// layer.
func (r *runner) transmit(n *node, p *packet.Packet) {
	p.Forward(n.id)
	r.attempt(n, p, 0)
}

// attempt performs one transmission of p from n — attempt number try, where
// 0 is the original send. The destination is re-read from n.parent on every
// attempt, so a retransmission after a route repair follows the new parent.
func (r *runner) attempt(n *node, p *packet.Packet, try int) {
	dest := n.parent
	if try > 0 {
		r.result.Retransmissions++
		r.recordLink(trace.Retransmit, n.id, dest, p)
	}
	if n.link.frameLost() {
		r.recordLink(trace.LinkLoss, n.id, dest, p)
		r.retryOrDrop(n, dest, p, try)
		return
	}
	f := r.acquireFlight(n, p, dest, try)
	// Every arrival lands exactly τ after its send and is never cancelled:
	// the kernel's FIFO keeps these in order without touching the heap.
	r.sched.AfterFixed(r.cfg.TransmissionDelay, f.arriveFn)
}

// arrive lands the frame at its destination after the transmission delay.
// The flight is released before any delivery processing so the forwarding
// the arrival triggers can reuse it immediately.
func (f *flight) arrive() {
	r, n, p, dest, try := f.r, f.n, f.p, f.dest, f.try
	r.releaseFlight(f)
	if dest == topology.Sink {
		// The duplicate check must clone before delivery mutates the
		// header, so it runs first in both branches.
		r.maybeDuplicate(n, dest, p, try)
		r.arriveAtSink(p)
		return
	}
	dn := r.nodes[dest]
	if dn.dead {
		if r.cfg.ARQ != nil {
			// A dead receiver never acknowledges: the sender times out
			// and retries — by then possibly toward a repaired route.
			r.recordLink(trace.LinkLoss, n.id, dest, p)
			r.retryOrDrop(n, dest, p, try)
		} else {
			r.result.LostToFailures++
			r.record(trace.Lost, dest, p)
		}
		return
	}
	r.maybeDuplicate(n, dest, p, try)
	r.deliver(dn, p)
}

// retry is the ARQ timeout callback: the backed-off wait has elapsed and the
// sender tries again.
func (f *flight) retry() {
	r, n, p, try := f.r, f.n, f.p, f.try
	r.releaseFlight(f)
	r.attempt(n, p, try+1)
}

// retryOrDrop schedules the next ARQ attempt after the backed-off timeout,
// or abandons the packet once the retry budget is spent.
func (r *runner) retryOrDrop(n *node, dest packet.NodeID, p *packet.Packet, try int) {
	arq := r.cfg.ARQ
	if arq == nil || try >= arq.MaxRetries {
		r.result.LinkDrops++
		r.recordLink(trace.LinkDrop, n.id, dest, p)
		return
	}
	f := r.acquireFlight(n, p, dest, try)
	r.sched.After(arq.wait(try), f.retryFn)
}

// maybeDuplicate models the acknowledgement of a delivered frame: when the
// ACK is lost the sender cannot distinguish the outcome from a lost frame
// and retransmits an independent copy — the duplicate the sink's
// (origin, seq) filter later suppresses. It must run before the delivered
// copy's header advances further.
func (r *runner) maybeDuplicate(n *node, dest packet.NodeID, p *packet.Packet, try int) {
	if r.cfg.ARQ == nil || !n.link.ackLost() {
		return
	}
	r.recordLink(trace.LinkLoss, n.id, dest, p)
	if try >= r.cfg.ARQ.MaxRetries {
		return // the sender gives up; the frame was in fact delivered
	}
	dup := r.clonePacket(p)
	f := r.acquireFlight(n, dup, dest, try)
	r.sched.After(r.cfg.ARQ.wait(try), f.retryFn)
}
