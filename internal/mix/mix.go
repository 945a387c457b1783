// Package mix implements the anonymity-network comparators from the
// paper's related work (§6): Chaum-style batching mixes. They exist so the
// evaluation can quantify the paper's claim that mix techniques, designed
// to decorrelate input/output traffic at a single node, "do not extend to
// networks of queues" the way RCAD's per-packet delaying does.
//
//   - ThresholdMix (a "pool mix", Diaz & Preneel): accumulate messages
//     until batch+pool are buffered, then flush a random batch while
//     retaining pool random messages.
//   - TimedMix: flush the whole buffer every interval, in random order.
//   - An SG-Mix (Kesdogan's stop-and-go mix, which Danezis proved optimal
//     for a given mean delay) delays each message independently with an
//     exponential — in this codebase that is exactly buffer.Unlimited with
//     an exponential delay distribution, so it needs no separate type; the
//     abl-mix experiment labels that combination "sg-mix".
//
// All mixes implement buffer.Policy so they drop into the network simulator
// via network.Config.CustomPolicy. Batching mixes ignore the sampled
// per-packet delay argument: their release times are driven by the batch
// rule, not by a per-packet distribution.
package mix

import (
	"fmt"
	"math"

	"tempriv/internal/buffer"
	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
)

// entry is one buffered message.
type entry struct {
	p         *packet.Packet
	arrivedAt float64
}

// base holds the bookkeeping shared by the batching mixes.
type base struct {
	sched   *sim.Scheduler
	forward buffer.Forward
	src     *rng.Source
	entries []entry
	stats   buffer.Stats
}

func newBase(sched *sim.Scheduler, forward buffer.Forward, src *rng.Source) (base, error) {
	if sched == nil {
		return base{}, fmt.Errorf("mix: nil scheduler")
	}
	if forward == nil {
		return base{}, fmt.Errorf("mix: nil forward function")
	}
	if src == nil {
		return base{}, fmt.Errorf("mix: nil random source")
	}
	return base{sched: sched, forward: forward, src: src}, nil
}

func (b *base) Len() int { return len(b.entries) }

// Stats returns the mix's counters; batch releases are not preemptions, so
// only Arrivals/Departures/Occupancy/HeldDelays are populated.
func (b *base) Stats() *buffer.Stats { return &b.stats }

func (b *base) observeOccupancy() {
	if err := b.stats.Occupancy.Observe(b.sched.Now(), float64(len(b.entries))); err != nil {
		panic(fmt.Sprintf("mix: occupancy bookkeeping: %v", err))
	}
}

// Evacuate removes all buffered messages and returns them — the
// node-failure path (see buffer.Policy implementations). Stats count them
// as neither departures nor drops.
func (b *base) Evacuate() []*packet.Packet {
	out := make([]*packet.Packet, 0, len(b.entries))
	for _, e := range b.entries {
		out = append(out, e.p)
	}
	b.entries = b.entries[:0]
	b.observeOccupancy()
	return out
}

func (b *base) admit(p *packet.Packet) {
	b.stats.Arrivals++
	b.entries = append(b.entries, entry{p: p, arrivedAt: b.sched.Now()})
	b.observeOccupancy()
}

// releaseAt forwards entry index i immediately and unlinks it.
func (b *base) release(i int) {
	e := b.entries[i]
	last := len(b.entries) - 1
	b.entries[i] = b.entries[last]
	b.entries = b.entries[:last]
	b.stats.Departures++
	b.stats.HeldDelays.Add(b.sched.Now() - e.arrivedAt)
	b.observeOccupancy()
	b.forward(e.p, false)
}

// flushRandom releases n random buffered messages (all of them when
// n >= Len) in random order.
func (b *base) flushRandom(n int) {
	if n > len(b.entries) {
		n = len(b.entries)
	}
	for i := 0; i < n; i++ {
		b.release(b.src.Intn(len(b.entries)))
	}
}

// ThresholdMix is a threshold pool mix: messages accumulate until
// batch+pool are buffered; then batch random messages flush immediately and
// pool random messages stay behind to mix with future traffic.
type ThresholdMix struct {
	base
	batch int
	pool  int
}

var _ buffer.Policy = (*ThresholdMix)(nil)

// NewThresholdMix returns a pool mix flushing batch messages (>= 1) once
// batch+pool are buffered, retaining pool (>= 0).
func NewThresholdMix(sched *sim.Scheduler, forward buffer.Forward, batch, pool int, src *rng.Source) (*ThresholdMix, error) {
	if batch < 1 {
		return nil, fmt.Errorf("mix: batch must be >= 1, got %d", batch)
	}
	if pool < 0 {
		return nil, fmt.Errorf("mix: pool must be >= 0, got %d", pool)
	}
	b, err := newBase(sched, forward, src)
	if err != nil {
		return nil, err
	}
	return &ThresholdMix{base: b, batch: batch, pool: pool}, nil
}

// Admit implements buffer.Policy. The sampled delay is ignored: release is
// batch-driven.
func (m *ThresholdMix) Admit(p *packet.Packet, _ float64) {
	m.admit(p)
	if len(m.entries) >= m.batch+m.pool {
		m.flushRandom(m.batch)
	}
}

// TimedMix flushes its whole buffer every interval, in random order. The
// first flush is scheduled on construction.
type TimedMix struct {
	base
	interval float64
	stopped  bool
	armed    bool
}

var _ buffer.Policy = (*TimedMix)(nil)

// NewTimedMix returns a timed mix with the given flush interval (> 0). The
// periodic flush chain runs for the lifetime of the simulation; call Stop
// to end it (otherwise Scheduler.Run would never drain).
func NewTimedMix(sched *sim.Scheduler, forward buffer.Forward, interval float64, src *rng.Source) (*TimedMix, error) {
	if interval <= 0 || math.IsNaN(interval) || math.IsInf(interval, 0) {
		return nil, fmt.Errorf("mix: flush interval must be positive and finite, got %v", interval)
	}
	b, err := newBase(sched, forward, src)
	if err != nil {
		return nil, err
	}
	m := &TimedMix{base: b, interval: interval}
	m.armFlush()
	return m, nil
}

func (m *TimedMix) armFlush() {
	m.sched.After(m.interval, func() {
		if m.stopped {
			return
		}
		// A flush drains the whole buffer, so the chain always goes idle
		// here and re-arms lazily on the next Admit. This bounds every
		// message's wait by one interval and lets the event list drain at
		// end of simulation instead of ticking forever.
		m.flushRandom(len(m.entries))
		m.armed = false
	})
	m.armed = true
}

// Admit implements buffer.Policy; the sampled delay is ignored.
func (m *TimedMix) Admit(p *packet.Packet, _ float64) {
	m.admit(p)
	if !m.armed && !m.stopped {
		m.armFlush()
	}
}

// Stop ends the periodic flush chain after at most one more flush.
func (m *TimedMix) Stop() { m.stopped = true }

// LatencyVariance is the scheme-independent privacy score used by the mix
// comparison: the variance of delivery latency, which equals the MSE of the
// strongest constant-offset estimator (one that knows each flow's mean
// delay exactly). See adversary.BestConstantOffsetMSE.
func LatencyVariance(latencies []float64) float64 {
	var w metrics.Welford
	for _, l := range latencies {
		w.Add(l)
	}
	return w.Variance()
}
