package network

// Benchmarks for the per-hop forwarding fast path, plus the allocation gate
// that pins a lossless forwarded hop at zero heap allocations. These drive
// the link layer directly through an assembled runner — no source arming —
// so they measure exactly the transmit → flight → arrive chain.

import (
	"testing"

	"tempriv/internal/packet"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

const benchHops = 8

// newForwardRunner assembles and arms a runner over a lossless line of
// benchHops hops under PolicyForward. The declared source is never armed —
// callers inject packets straight into the link layer.
func newForwardRunner(tb testing.TB, cfg func(*Config)) *runner {
	tb.Helper()
	topo, err := topology.Line(benchHops)
	if err != nil {
		tb.Fatal(err)
	}
	proc, err := traffic.NewPeriodic(10)
	if err != nil {
		tb.Fatal(err)
	}
	c := Config{
		Topology: topo,
		Sources:  []Source{{Node: packet.NodeID(benchHops), Process: proc, Count: 1}},
		Policy:   PolicyForward,
		Seed:     42,
	}
	if cfg != nil {
		cfg(&c)
	}
	c, err = resolveConfig(c)
	if err != nil {
		tb.Fatal(err)
	}
	id := structureOf(&c)
	r, err := newRunner(c, id)
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.rearm(c, id, nil); err != nil {
		tb.Fatal(err)
	}
	return r
}

// forwardOnce injects packet seq at head from the arena, as a source does,
// pushes it through the whole line and drains the event list, then resets
// the delivery log so the next op reuses its backing array. The sink
// returns the packet to the arena, so the next op reuses it too.
func forwardOnce(r *runner, head *node, seq uint32) {
	r.transmit(head, r.newPacket(head.id, seq, r.sched.Now()))
	for r.sched.Step() {
	}
	r.result.Deliveries = r.result.Deliveries[:0]
}

// BenchmarkForwardHop measures the lossless forwarding fast path: one op
// carries a packet benchHops hops to the sink, so per-hop cost is op time
// divided by benchHops. Steady state must be allocation-free — the pooled
// timers and flights are the whole point of the engine refactor.
func BenchmarkForwardHop(b *testing.B) {
	r := newForwardRunner(b, nil)
	head := r.nodes[packet.NodeID(benchHops)]
	forwardOnce(r, head, 0) // warm the pools, the arena and the delivery log
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardOnce(r, head, 0)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*benchHops)*1e9, "ns/hop")
}

// BenchmarkForwardHopLossyARQ is the same path under 10% frame loss with
// ARQ recovery — the lossy path clones duplicates and may allocate; it is
// benchmarked for visibility, not gated.
func BenchmarkForwardHopLossyARQ(b *testing.B) {
	r := newForwardRunner(b, func(c *Config) {
		c.Channel = &ChannelConfig{LossP: 0.1, AckLossP: 0.02}
		c.ARQ = DefaultARQ()
	})
	head := r.nodes[packet.NodeID(benchHops)]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh routing seq per op keeps the sink's duplicate filter from
		// conflating ops; the map grows, so this path is not allocation-free.
		forwardOnce(r, head, uint32(i))
	}
}

// TestForwardHopAllocationFree is the acceptance gate behind the refactor:
// once the timer and flight pools are warm, forwarding a packet across a
// lossless line must not allocate at all. Any closure creeping back into
// the transmit/arrive chain, any unpooled timer, or any per-hop boxing
// fails this immediately.
func TestForwardHopAllocationFree(t *testing.T) {
	r := newForwardRunner(t, nil)
	head := r.nodes[packet.NodeID(benchHops)]
	forwardOnce(r, head, 0) // warm the pools, the arena and the delivery log
	if allocs := testing.AllocsPerRun(500, func() {
		forwardOnce(r, head, 0)
	}); allocs != 0 {
		t.Errorf("lossless %d-hop forward allocates %v per run, want 0", benchHops, allocs)
	}
}
