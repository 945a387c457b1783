package network

// Source layer: packet creation. Each declared Source gets one sourceState
// whose single pre-bound tick callback draws the next interarrival gap,
// materialises the packet, and re-arms itself — the allocation-free
// replacement for the old per-packet closure chain.

import (
	"fmt"

	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/trace"
)

// sourceState is the arming state of one traffic source. tickFn is bound to
// tick once at construction so re-arming schedules the same func value every
// time instead of closing over fresh state per packet.
type sourceState struct {
	r      *runner
	s      Source
	src    rng.Source
	seq    uint32
	tickFn func()
}

// scheduleSources arms the first creation event of every source.
func (r *runner) scheduleSources() error {
	master := rng.New(r.cfg.Seed)
	for i, s := range r.cfg.Sources {
		hops, ok := r.routes.HopCount(s.Node)
		if !ok {
			return fmt.Errorf("network: source %v not routed", s.Node)
		}
		fs := r.result.flowStats()
		*fs = FlowStats{Source: s.Node, HopCount: hops}
		r.result.Flows[s.Node] = fs
		st := &sourceState{r: r, s: s}
		master.SplitIndexedInto(&st.src, "traffic", i)
		st.tickFn = st.tick
		st.arm()
	}
	return nil
}

// arm schedules the source's next packet creation, having already created
// st.seq packets. Drawing the gap here — at scheduling time, not fire time —
// is part of the determinism contract: the substream advances in the same
// order the old recursive closures advanced it.
func (st *sourceState) arm() {
	if st.s.Count > 0 && int(st.seq) >= st.s.Count {
		return
	}
	gap := st.s.Process.Next(&st.src)
	when := st.r.sched.Now() + gap
	if st.r.cfg.Horizon > 0 && when > st.r.cfg.Horizon {
		return
	}
	st.r.sched.At(when, st.tickFn)
}

// tick fires one creation event and re-arms the next.
func (st *sourceState) tick() {
	st.r.createPacket(st.s, st.seq)
	st.seq++
	st.arm()
}

// createPacket materialises one packet at its source and hands it to the
// source node's buffering policy. A dead source senses nothing.
func (r *runner) createPacket(s Source, seq uint32) {
	if r.nodes[s.Node].dead {
		return
	}
	now := r.sched.Now()
	p := r.newPacket(s.Node, seq, now)
	if r.keyring != nil {
		reading := packet.Reading{Value: float64(seq), AppSeq: seq, CreatedAt: now}
		if err := p.SealReading(r.keyring, reading); err != nil {
			// Sealing uses validated keys and cannot fail at runtime; a
			// failure here is a programming error worth stopping for.
			panic(fmt.Sprintf("network: sealing payload: %v", err))
		}
	}
	r.result.Flows[s.Node].Created++
	r.record(trace.Created, s.Node, p)
	r.deliver(r.nodes[s.Node], p)
}
