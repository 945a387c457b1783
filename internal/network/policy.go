package network

// Delay-policy layer: wires the configured buffering behaviour to each node
// and admits arriving packets into it. The policy holds a packet for its
// sampled buffering delay (or preempts it) and hands it back to the link
// layer through the node's forward callback.

import (
	"fmt"

	"tempriv/internal/buffer"
	"tempriv/internal/core"
	"tempriv/internal/packet"
	"tempriv/internal/trace"
)

// evacuator is implemented by buffering policies whose contents can be
// destroyed on node failure.
type evacuator interface {
	Evacuate() []*packet.Packet
}

// attachPolicy builds the configured buffering policy for node n. It runs
// inside rearm, after n has adopted the run's delay and substream.
func (r *runner) attachPolicy(n *node) error {
	if r.cfg.Policy == PolicyForward {
		return nil // handled inline in deliver
	}
	forward := func(p *packet.Packet, preempted bool) {
		kind := trace.Released
		if preempted {
			kind = trace.Preempted
		}
		r.record(kind, n.id, p)
		r.transmit(n, p)
	}
	switch r.cfg.Policy {
	case PolicyUnlimited:
		pol, err := buffer.NewUnlimited(r.sched, forward)
		if err != nil {
			return fmt.Errorf("network: node %v: %w", n.id, err)
		}
		n.policy = pol
	case PolicyDropTail:
		pol, err := buffer.NewDropTail(r.sched, forward, r.cfg.Capacity)
		if err != nil {
			return fmt.Errorf("network: node %v: %w", n.id, err)
		}
		n.policy = pol
	case PolicyCustom:
		pol, err := r.cfg.CustomPolicy(r.sched, forward, n.src.Split("policy"))
		if err != nil {
			return fmt.Errorf("network: node %v: building custom policy: %w", n.id, err)
		}
		if pol == nil {
			return fmt.Errorf("network: node %v: custom policy factory returned nil", n.id)
		}
		n.policy = pol
	case PolicyRCAD:
		if rc := r.cfg.RateControl; rc != nil {
			ctrl, err := core.NewRateController(r.cfg.Capacity, rc.TargetLoss, rc.Smoothing, n.dist.Mean())
			if err != nil {
				return fmt.Errorf("network: node %v: %w", n.id, err)
			}
			n.ctrl = ctrl
		}
		pol, err := buffer.NewPreemptive(r.sched, forward, r.cfg.Capacity, r.cfg.Victim, &n.victim)
		if err != nil {
			return fmt.Errorf("network: node %v: %w", n.id, err)
		}
		n.policy = pol
	}
	return nil
}

// deliver hands a packet to node n's buffering policy (or forwards it
// immediately under PolicyForward). Packets reaching a dead node are lost.
func (r *runner) deliver(n *node, p *packet.Packet) {
	if n.dead {
		r.result.LostToFailures++
		r.record(trace.Lost, n.id, p)
		return
	}
	if n.policy == nil { // PolicyForward
		r.transmit(n, p)
		return
	}
	r.record(trace.Admitted, n.id, p)
	n.policy.Admit(p, n.delay(r.sched.Now()))
}

// delay draws the buffering delay of a packet n admits at now: from the
// rate controller's plan when the node has one, else from the node's
// distribution.
func (n *node) delay(now float64) float64 {
	if n.ctrl != nil {
		n.ctrl.Observe(now)
		return n.draw.Exponential(n.ctrl.MeanDelay())
	}
	return n.dist.Sample(n.draw)
}
