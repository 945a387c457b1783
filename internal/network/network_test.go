package network

import (
	"math"
	"testing"

	"tempriv/internal/buffer"
	"tempriv/internal/core"
	"tempriv/internal/delay"
	"tempriv/internal/packet"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
	"tempriv/internal/traffic"
)

func lineConfig(t *testing.T, hops int, policy PolicyKind, interarrival float64, count int) Config {
	t.Helper()
	topo, err := topology.Line(hops)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := traffic.NewPeriodic(interarrival)
	if err != nil {
		t.Fatal(err)
	}
	var dist delay.Distribution
	if policy != PolicyForward {
		d, err := delay.NewExponential(30)
		if err != nil {
			t.Fatal(err)
		}
		dist = d
	}
	return Config{
		Topology: topo,
		Sources:  []Source{{Node: packet.NodeID(hops), Process: proc, Count: count}},
		Policy:   policy,
		Delay:    dist,
		Seed:     42,
	}
}

func TestNoDelayLatencyIsExactlyHops(t *testing.T) {
	const hops = 5
	res, err := Run(lineConfig(t, hops, PolicyForward, 10, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 50 {
		t.Fatalf("delivered %d, want 50", len(res.Deliveries))
	}
	for _, d := range res.Deliveries {
		if lat := d.At - d.Truth.CreatedAt; math.Abs(lat-hops) > 1e-9 {
			t.Fatalf("latency = %v, want exactly %d (h·τ)", lat, hops)
		}
		if int(d.Header.HopCount) != hops {
			t.Fatalf("hop count at sink = %d, want %d", d.Header.HopCount, hops)
		}
	}
	fs := res.Flows[packet.NodeID(hops)]
	if fs.Created != 50 || fs.Delivered != 50 || fs.Dropped() != 0 {
		t.Fatalf("flow stats = %+v", fs)
	}
}

func TestUnlimitedLatencyMatchesTheory(t *testing.T) {
	// Expected end-to-end latency = h·(τ + 1/µ) = 5·31 = 155.
	const hops = 5
	res, err := Run(lineConfig(t, hops, PolicyUnlimited, 10, 2000))
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[packet.NodeID(hops)]
	want := float64(hops) * 31
	if math.Abs(fs.Latency.Mean-want) > 0.07*want {
		t.Fatalf("mean latency = %v, want ≈ %v", fs.Latency.Mean, want)
	}
	if fs.Dropped() != 0 {
		t.Fatalf("unlimited policy dropped %d packets", fs.Dropped())
	}
}

func TestRCADNeverDropsAndCutsLatencyUnderLoad(t *testing.T) {
	// 1/λ = 2 ≪ 1/µ = 30: heavy preemption. RCAD delivers everything and
	// its latency is far below the unlimited-buffer case (§5.3).
	const hops = 15
	cfgRCAD := lineConfig(t, hops, PolicyRCAD, 2, 1000)
	cfgUnl := lineConfig(t, hops, PolicyUnlimited, 2, 1000)
	resRCAD, err := Run(cfgRCAD)
	if err != nil {
		t.Fatal(err)
	}
	resUnl, err := Run(cfgUnl)
	if err != nil {
		t.Fatal(err)
	}
	src := packet.NodeID(hops)
	if resRCAD.Flows[src].Dropped() != 0 {
		t.Fatalf("RCAD dropped %d packets", resRCAD.Flows[src].Dropped())
	}
	latR := resRCAD.Flows[src].Latency.Mean
	latU := resUnl.Flows[src].Latency.Mean
	// On a single line every node carries only λ = 0.5, so the latency cut
	// is milder than the paper's 2.5× (which arises on the Figure-1 merge
	// topology whose trunk carries 4 flows); the fig2b experiment checks
	// that factor. Here require a clear reduction.
	if latR >= 0.8*latU {
		t.Fatalf("RCAD latency %v not clearly below unlimited %v", latR, latU)
	}
	// Some node must have preempted.
	totalPreempt := uint64(0)
	for _, ns := range resRCAD.Nodes {
		totalPreempt += ns.Preemptions
	}
	if totalPreempt == 0 {
		t.Fatal("no preemptions under heavy load")
	}
}

func TestDropTailLosesPacketsUnderOverload(t *testing.T) {
	const hops = 5
	res, err := Run(lineConfig(t, hops, PolicyDropTail, 2, 1000))
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[packet.NodeID(hops)]
	if fs.Dropped() == 0 {
		t.Fatal("drop-tail under 15× overload dropped nothing")
	}
	if fs.Delivered+fs.Dropped() != fs.Created {
		t.Fatalf("conservation violated: %+v", fs)
	}
	drops := uint64(0)
	for _, ns := range res.Nodes {
		drops += ns.Drops
	}
	if drops != fs.Dropped() {
		t.Fatalf("node drops %d != flow drops %d", drops, fs.Dropped())
	}
}

func TestDeterminism(t *testing.T) {
	cfg := lineConfig(t, 8, PolicyRCAD, 3, 500)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Deliveries) != len(b.Deliveries) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a.Deliveries), len(b.Deliveries))
	}
	for i := range a.Deliveries {
		if a.Deliveries[i] != b.Deliveries[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a.Deliveries[i], b.Deliveries[i])
		}
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range c.Deliveries {
		if i < len(a.Deliveries) && a.Deliveries[i] == c.Deliveries[i] {
			same++
		}
	}
	if same == len(a.Deliveries) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestDeliveriesAreTimeOrdered(t *testing.T) {
	res, err := Run(lineConfig(t, 10, PolicyRCAD, 2, 800))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Deliveries); i++ {
		if res.Deliveries[i].At < res.Deliveries[i-1].At {
			t.Fatalf("deliveries out of order at %d", i)
		}
	}
}

func TestObservationsAlignWithTruths(t *testing.T) {
	res, err := Run(lineConfig(t, 6, PolicyUnlimited, 5, 200))
	if err != nil {
		t.Fatal(err)
	}
	obs := res.Observations()
	truths := res.Truths()
	if len(obs) != len(truths) || len(obs) != len(res.Deliveries) {
		t.Fatalf("lengths differ: %d obs, %d truths, %d deliveries", len(obs), len(truths), len(res.Deliveries))
	}
	for i := range obs {
		if obs[i].ArrivalTime != res.Deliveries[i].At {
			t.Fatalf("observation %d arrival mismatch", i)
		}
		if truths[i] != res.Deliveries[i].Truth.CreatedAt {
			t.Fatalf("truth %d mismatch", i)
		}
		if obs[i].ArrivalTime < truths[i] {
			t.Fatalf("packet %d arrived before creation", i)
		}
	}
}

func TestSealedPayloadsVerifyAtSink(t *testing.T) {
	cfg := lineConfig(t, 4, PolicyRCAD, 5, 100)
	cfg.Seal = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SealFailures != 0 {
		t.Fatalf("%d seal failures", res.SealFailures)
	}
	if len(res.Deliveries) != 100 {
		t.Fatalf("delivered %d, want 100", len(res.Deliveries))
	}
}

func TestFigure1TopologyRuns(t *testing.T) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	proc, err := traffic.NewPeriodic(5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := delay.NewExponential(30)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []Source
	for _, s := range sources {
		srcs = append(srcs, Source{Node: s, Process: proc, Count: 200})
	}
	res, err := Run(Config{
		Topology: topo,
		Sources:  srcs,
		Policy:   PolicyRCAD,
		Delay:    dist,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 800 {
		t.Fatalf("delivered %d, want 800 (4×200, RCAD never drops)", len(res.Deliveries))
	}
	for i, want := range topology.Figure1HopCounts {
		fs := res.Flows[sources[i]]
		if fs.HopCount != want {
			t.Fatalf("S%d hop count %d, want %d", i+1, fs.HopCount, want)
		}
		if fs.Delivered != 200 {
			t.Fatalf("S%d delivered %d", i+1, fs.Delivered)
		}
	}
	// The shared trunk nodes carry all four flows.
	trunk := res.Nodes[packet.NodeID(1)]
	if trunk.Arrivals != 800 {
		t.Fatalf("trunk arrivals = %d, want 800", trunk.Arrivals)
	}
}

func TestHorizonBoundsGeneration(t *testing.T) {
	topo, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := traffic.NewPoisson(0.5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := delay.NewExponential(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology: topo,
		Sources:  []Source{{Node: 3, Process: proc, Count: 0}},
		Policy:   PolicyUnlimited,
		Delay:    dist,
		Horizon:  2000,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	created := res.Flows[3].Created
	// ≈ λ·horizon = 1000 creations.
	if created < 800 || created > 1200 {
		t.Fatalf("created %d packets, want ≈ 1000", created)
	}
	for _, d := range res.Deliveries {
		if d.Truth.CreatedAt > 2000 {
			t.Fatalf("packet created at %v after horizon", d.Truth.CreatedAt)
		}
	}
	// In-flight packets drain past the horizon.
	if res.Duration <= 2000 {
		t.Fatalf("simulation ended at %v, expected drain past horizon", res.Duration)
	}
}

func TestPerNodeDelayOverride(t *testing.T) {
	topo, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := traffic.NewPeriodic(50)
	if err != nil {
		t.Fatal(err)
	}
	base, err := delay.NewConstant(5)
	if err != nil {
		t.Fatal(err)
	}
	override, err := delay.NewConstant(20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology:     topo,
		Sources:      []Source{{Node: 2, Process: proc, Count: 50}},
		Policy:       PolicyUnlimited,
		Delay:        base,
		PerNodeDelay: map[packet.NodeID]delay.Distribution{1: override},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latency = τ·2 + 5 (node 2) + 20 (node 1) = 27 exactly.
	fs := res.Flows[2]
	if math.Abs(fs.Latency.Mean-27) > 1e-9 {
		t.Fatalf("latency = %v, want 27", fs.Latency.Mean)
	}
}

func TestRateControlledRun(t *testing.T) {
	cfg := lineConfig(t, 10, PolicyRCAD, 2, 1000)
	cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[packet.NodeID(10)]
	if fs.Dropped() != 0 {
		t.Fatalf("rate-controlled RCAD dropped %d", fs.Dropped())
	}
	// The controller plans ρ*/λ ≈ 15 per hop instead of the 30 cap, so the
	// preemption rate across nodes should be moderate, not extreme.
	for _, ns := range res.Nodes {
		if ns.Arrivals == 0 {
			continue
		}
		if rate := float64(ns.Preemptions) / float64(ns.Arrivals); rate > 0.5 {
			t.Fatalf("node %v preemption rate %v with rate control", ns.ID, rate)
		}
	}
}

// TestRCADWithControllerAdjustsDelay: on one hop at 1/λ = 2 with 1/µ
// capped at 1000, the §4 controller plans ρ*/λ ≈ 15 for (k = 10, α = 0.1)
// and holds preemptions near the target. The Erlang loss formula models
// blocking, not preemption (a preempted victim is the shortest-remaining
// packet, which biases the buffer toward longer-remaining ones), so the
// achieved rate sits somewhat above α — the paper uses the formula as the
// same kind of approximation — and the band asked for is [0.03, 0.3]. The
// same run without the controller preempts most of its arrivals.
func TestRCADWithControllerAdjustsDelay(t *testing.T) {
	preemptionRate := func(rc *RateControl) float64 {
		cfg := lineConfig(t, 1, PolicyRCAD, 2, 2000)
		cfg.Delay = mustDist(delay.NewExponential(1000))
		cfg.RateControl = rc
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ns := res.Nodes[1]
		if ns.Arrivals != 2000 || ns.Drops != 0 {
			t.Fatalf("rate control %v: %d arrivals, %d drops", rc != nil, ns.Arrivals, ns.Drops)
		}
		return float64(ns.Preemptions) / float64(ns.Arrivals)
	}
	if rate := preemptionRate(&RateControl{TargetLoss: 0.1, Smoothing: 0.3}); rate < 0.03 || rate > 0.3 {
		t.Errorf("preemption rate with controller = %v, want within [0.03, 0.3] of target 0.1", rate)
	}
	if rate := preemptionRate(nil); rate <= 0.5 {
		t.Errorf("preemption rate without controller = %v, want > 0.5", rate)
	}
}

func TestOccupancyBoundedByCapacity(t *testing.T) {
	cfg := lineConfig(t, 5, PolicyRCAD, 2, 500)
	cfg.Capacity = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range res.Nodes {
		if ns.MaxOccupancy > 7 {
			t.Fatalf("node %v peak occupancy %v exceeds capacity 7", ns.ID, ns.MaxOccupancy)
		}
	}
	// An unset capacity is the paper's k, which an overloaded hop fills.
	res, err = Run(lineConfig(t, 1, PolicyRCAD, 1, 500))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Nodes[1].MaxOccupancy; got != core.DefaultCapacity {
		t.Fatalf("default-capacity peak occupancy %v, want %d", got, core.DefaultCapacity)
	}
}

func TestVictimSelectorConfigurable(t *testing.T) {
	cfg := lineConfig(t, 5, PolicyRCAD, 2, 300)
	cfg.Victim = buffer.Oldest{}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	good := lineConfig(t, 3, PolicyRCAD, 5, 10)

	bad := good
	bad.Topology = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("nil topology accepted")
	}

	bad = good
	bad.Sources = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("no sources accepted")
	}

	bad = good
	bad.Policy = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero policy accepted")
	}

	bad = good
	bad.Delay = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("nil delay for RCAD accepted")
	}

	bad = good
	bad.Sources = []Source{{Node: 99, Process: bad.Sources[0].Process, Count: 1}}
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown source node accepted")
	}

	bad = good
	bad.Sources = []Source{{Node: topology.Sink, Process: bad.Sources[0].Process, Count: 1}}
	if _, err := Run(bad); err == nil {
		t.Fatal("sink as source accepted")
	}

	bad = good
	bad.Sources = []Source{{Node: 3, Process: nil, Count: 1}}
	if _, err := Run(bad); err == nil {
		t.Fatal("nil process accepted")
	}

	bad = good
	bad.Sources = []Source{{Node: 3, Process: bad.Sources[0].Process, Count: 0}}
	if _, err := Run(bad); err == nil {
		t.Fatal("unbounded source without horizon accepted")
	}

	bad = good
	bad.TransmissionDelay = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative tau accepted")
	}

	bad = good
	bad.Policy = PolicyForward
	bad.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
	if _, err := Run(bad); err == nil {
		t.Fatal("rate control without RCAD accepted")
	}
}

func TestPolicyKindString(t *testing.T) {
	names := map[PolicyKind]string{
		PolicyForward:   "no-delay",
		PolicyUnlimited: "delay-unlimited",
		PolicyDropTail:  "delay-droptail",
		PolicyRCAD:      "rcad",
		PolicyKind(99):  "policy(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestPolicyByName: every built-in kind round-trips through String and
// PolicyByName, and names with no built-in kind are rejected.
func TestPolicyByName(t *testing.T) {
	for _, k := range []PolicyKind{PolicyForward, PolicyUnlimited, PolicyDropTail, PolicyRCAD} {
		if got, err := PolicyByName(k.String()); err != nil || got != k {
			t.Errorf("PolicyByName(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{PolicyCustom.String(), "", "RCAD", "policy(99)"} {
		if k, err := PolicyByName(name); err == nil {
			t.Errorf("PolicyByName(%q) = %v, want an error", name, k)
		}
	}
}

func TestNodeFailureCutsFlow(t *testing.T) {
	// Fail the midpoint relay of a 5-hop line at t=100. With deterministic
	// forwarding (latency 5), packets created before ≈98 clear node 3 in
	// time; later ones die there.
	cfg := lineConfig(t, 5, PolicyForward, 10, 50) // creations at t=10..500
	cfg.NodeFailures = []NodeFailure{{Node: 3, At: 100}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[packet.NodeID(5)]
	if fs.Delivered == 0 {
		t.Fatal("no packets delivered before the failure")
	}
	if fs.Delivered == fs.Created {
		t.Fatal("failure lost nothing")
	}
	if res.LostToFailures == 0 {
		t.Fatal("LostToFailures not counted")
	}
	// Conservation: every created packet is delivered, lost to the failure,
	// or still counted in a live buffer (none here: the run drained).
	if fs.Delivered+res.LostToFailures != fs.Created {
		t.Fatalf("conservation: created %d != delivered %d + lost %d",
			fs.Created, fs.Delivered, res.LostToFailures)
	}
	// No delivery was created after the failure cut the only path.
	for _, d := range res.Deliveries {
		// A packet created at time c reaches node 3 no earlier than c+2
		// (two hops); everything created after ~98 must be lost.
		if d.Truth.CreatedAt > 100 {
			t.Fatalf("packet created at %v delivered across a dead node", d.Truth.CreatedAt)
		}
	}
}

func TestFailedSourceStopsCreating(t *testing.T) {
	cfg := lineConfig(t, 3, PolicyForward, 10, 100) // would run to t=1000
	cfg.NodeFailures = []NodeFailure{{Node: 3, At: 305}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[packet.NodeID(3)]
	// Creations at 10,20,...,300 happen; the rest are suppressed.
	if fs.Created != 30 {
		t.Fatalf("created %d packets, want 30 (source died at t=305)", fs.Created)
	}
	if fs.Delivered != 30 {
		t.Fatalf("delivered %d", fs.Delivered)
	}
}

func TestFailureEvacuatesBuffers(t *testing.T) {
	// With RCAD and slow delays, the failed node holds packets at failure
	// time; they must be counted lost, not delivered late.
	cfg := lineConfig(t, 4, PolicyRCAD, 2, 200)
	cfg.NodeFailures = []NodeFailure{{Node: 2, At: 150}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[packet.NodeID(4)]
	if fs.Delivered+res.LostToFailures != fs.Created {
		t.Fatalf("conservation: created %d, delivered %d, lost %d",
			fs.Created, fs.Delivered, res.LostToFailures)
	}
	if res.LostToFailures == 0 {
		t.Fatal("no losses recorded despite mid-path failure")
	}
}

func TestFailureValidation(t *testing.T) {
	cfg := lineConfig(t, 3, PolicyForward, 10, 5)
	cfg.NodeFailures = []NodeFailure{{Node: 99, At: 1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("failure on unknown node accepted")
	}
	cfg.NodeFailures = []NodeFailure{{Node: topology.Sink, At: 1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("sink failure accepted")
	}
	cfg.NodeFailures = []NodeFailure{{Node: 2, At: -1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative failure time accepted")
	}
}

func TestTracerRecordsFullJourney(t *testing.T) {
	var mem trace.Memory
	cfg := lineConfig(t, 3, PolicyRCAD, 5, 20)
	cfg.Tracer = &mem
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mem.CountKind(trace.Created) != 20 {
		t.Fatalf("created events = %d, want 20", mem.CountKind(trace.Created))
	}
	if mem.CountKind(trace.Delivered) != len(res.Deliveries) {
		t.Fatalf("delivered events = %d, want %d", mem.CountKind(trace.Delivered), len(res.Deliveries))
	}
	// Each of the 20 packets buffers at 3 nodes.
	if got := mem.CountKind(trace.Admitted); got != 60 {
		t.Fatalf("admitted events = %d, want 60", got)
	}
	releases := mem.CountKind(trace.Released) + mem.CountKind(trace.Preempted)
	if releases != 60 {
		t.Fatalf("release events = %d, want 60", releases)
	}
	// A packet's journey is time-ordered and its hop delays sum to its
	// latency minus transmission time.
	journey := mem.Journey(3, 0)
	if len(journey) != 1+3+3+1 {
		t.Fatalf("journey has %d events: %+v", len(journey), journey)
	}
	hops := mem.HopDelays(3, 0)
	if len(hops) != 3 {
		t.Fatalf("hop delays = %+v", hops)
	}
	total := 0.0
	for _, h := range hops {
		total += h.Delay
	}
	lat := res.Deliveries[indexOfSeq(res, 0)].At - res.Deliveries[indexOfSeq(res, 0)].Truth.CreatedAt
	if math.Abs(total+3-lat) > 1e-9 { // 3 hops × τ=1 transmission
		t.Fatalf("hop delays %v + 3 != latency %v", total, lat)
	}
}

func indexOfSeq(res *Result, seq uint32) int {
	for i, d := range res.Deliveries {
		if d.Truth.Seq == seq {
			return i
		}
	}
	return -1
}

func TestTracerRecordsLosses(t *testing.T) {
	var mem trace.Memory
	cfg := lineConfig(t, 4, PolicyRCAD, 2, 100)
	cfg.NodeFailures = []NodeFailure{{Node: 2, At: 80}}
	cfg.Tracer = &mem
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(mem.CountKind(trace.Lost)); got != res.LostToFailures {
		t.Fatalf("lost events = %d, result says %d", got, res.LostToFailures)
	}
}

func TestDuplicateSourceRejected(t *testing.T) {
	cfg := lineConfig(t, 3, PolicyForward, 10, 5)
	cfg.Sources = append(cfg.Sources, cfg.Sources[0])
	if _, err := Run(cfg); err == nil {
		t.Fatal("duplicate source node accepted")
	}
}
