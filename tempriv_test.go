package tempriv

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestQuickstartFlow exercises the facade end-to-end the way the README's
// quickstart does: build, run, attack, score.
func TestQuickstartFlow(t *testing.T) {
	topo, err := NewLineTopology(15)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := PeriodicTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ExponentialDelay(30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology: topo,
		Sources:  []Source{{Node: 15, Process: proc, Count: 500}},
		Policy:   PolicyRCAD,
		Delay:    dist,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 500 {
		t.Fatalf("delivered %d packets, want 500", len(res.Deliveries))
	}
	adv, err := NewBaselineAdversary(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := ScoreAdversary(adv, res)
	if err != nil {
		t.Fatal(err)
	}
	if mse.Value() <= 0 {
		t.Fatal("RCAD produced zero adversary error under load")
	}
}

// TestRunBorrowedFacade runs seeds through one EngineCache: each borrowed
// result must hold exactly the deliveries of Run's result for its seed.
func TestRunBorrowedFacade(t *testing.T) {
	topo, err := NewLineTopology(5)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := PeriodicTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ExponentialDelay(30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topology: topo,
		Sources:  []Source{{Node: 5, Process: proc, Count: 200}},
		Policy:   PolicyRCAD,
		Delay:    dist,
	}
	cache := NewEngineCache()
	for seed := uint64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = RunBorrowed(cache, cfg, func(res *Result) error {
			if !reflect.DeepEqual(res.Deliveries, want.Deliveries) {
				t.Fatalf("seed %d: borrowed deliveries differ from Run's", seed)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFigure1TopologyFacade(t *testing.T) {
	topo, sources, err := Figure1Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 4 {
		t.Fatalf("sources = %v", sources)
	}
	hops, err := HopCounts(topo)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{15, 22, 9, 11}
	for i, s := range sources {
		if hops[s] != want[i] {
			t.Fatalf("S%d hops = %d, want %d", i+1, hops[s], want[i])
		}
	}
}

func TestFlowPathsFacade(t *testing.T) {
	topo, err := NewLineTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := FlowPaths(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := paths[NodeID(4)]
	if len(path) != 4 {
		t.Fatalf("path = %v, want 4 buffering nodes", path)
	}
	if path[0] != 4 || path[len(path)-1] != 1 {
		t.Fatalf("path = %v, want source first and sink excluded", path)
	}
}

func TestPlanDelaysFacade(t *testing.T) {
	topo, sources, err := NewMergeTreeTopology([]int{5, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[NodeID]float64{sources[0]: 0.5, sources[1]: 0.5}
	plan, err := PlanDelays(topo, rates, 10, 0.1, 120)
	if err != nil {
		t.Fatal(err)
	}
	// Trunk node 1 carries both flows (λ=1.0) and must get a shorter delay
	// than either source (λ=0.5 each).
	if plan[1] >= plan[sources[0]] {
		t.Fatalf("trunk delay %v not shorter than source delay %v", plan[1], plan[sources[0]])
	}
	dists, err := DelaysFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != len(plan) {
		t.Fatalf("converted %d of %d plans", len(dists), len(plan))
	}
	for id, d := range dists {
		if math.Abs(d.Mean()-plan[id]) > 1e-12 {
			t.Fatalf("node %v distribution mean %v != plan %v", id, d.Mean(), plan[id])
		}
	}
}

func TestVictimAndDelayFactories(t *testing.T) {
	for _, name := range []string{"shortest-remaining", "longest-remaining", "oldest", "random"} {
		v, err := VictimByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if v.Name() != name {
			t.Fatalf("VictimByName(%q).Name() = %q", name, v.Name())
		}
	}
	for _, name := range []string{"exponential", "uniform", "constant", "pareto", "none"} {
		d, err := DelayByName(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name() != name {
			t.Fatalf("DelayByName(%q).Name() = %q", name, d.Name())
		}
	}
	if ShortestRemainingVictim.Name() != "shortest-remaining" {
		t.Fatal("default victim selector wrong")
	}
	for _, k := range []PolicyKind{PolicyForward, PolicyUnlimited, PolicyDropTail, PolicyRCAD} {
		if got, err := PolicyByName(k.String()); err != nil || got != k {
			t.Fatalf("PolicyByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := PolicyByName(PolicyCustom.String()); err == nil {
		t.Fatal("PolicyByName accepted custom, which needs a factory")
	}
}

func TestTrafficFactories(t *testing.T) {
	if _, err := PeriodicTraffic(2); err != nil {
		t.Fatal(err)
	}
	if _, err := PoissonTraffic(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := OnOffTraffic(1, 10, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := TraceTraffic([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := PeriodicTraffic(0); err == nil {
		t.Fatal("invalid traffic accepted")
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(Experiments()) {
		t.Fatal("IDs and registry disagree")
	}
	e, err := ExperimentByID("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Packets = 100
	p.Interarrivals = []float64{5}
	tab, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 2(a)") {
		t.Fatalf("render missing title:\n%s", b.String())
	}
}

func TestAdversaryFactoriesValidate(t *testing.T) {
	if _, err := NewBaselineAdversary(-1, 0); err == nil {
		t.Fatal("invalid baseline accepted")
	}
	if _, err := NewAdaptiveAdversary(1, 30, 0, 0.1); err == nil {
		t.Fatal("invalid adaptive accepted")
	}
	if _, err := NewPathAwareAdversary(1, 30, 10, 0.1, nil); err == nil {
		t.Fatal("invalid path-aware accepted")
	}
}

func TestGridFacade(t *testing.T) {
	topo, err := NewGridTopology(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	id := GridNodeID(6, 5, 3)
	if !topo.HasNode(id) {
		t.Fatalf("grid missing node %v", id)
	}
	if err := topo.MarkSource(id); err != nil {
		t.Fatal(err)
	}
	hops, err := HopCounts(topo)
	if err != nil {
		t.Fatal(err)
	}
	if hops[id] != 8 {
		t.Fatalf("corner-to-corner hops = %d, want 8", hops[id])
	}
}

func TestCustomMixPolicyThroughFacade(t *testing.T) {
	topo, err := NewLineTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := PeriodicTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology:     topo,
		Sources:      []Source{{Node: 4, Process: proc, Count: 200}},
		Policy:       PolicyCustom,
		CustomPolicy: ThresholdMixPolicy(10, 0),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[4].Delivered != 200 {
		t.Fatalf("threshold mix delivered %d/200", res.Flows[4].Delivered)
	}
	genie, err := BestConstantOffsetMSE(res)
	if err != nil {
		t.Fatal(err)
	}
	if genie[4] < 0 {
		t.Fatalf("genie MSE = %v", genie[4])
	}
}

func TestNodeFailureThroughFacade(t *testing.T) {
	topo, err := NewLineTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := PeriodicTraffic(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology:     topo,
		Sources:      []Source{{Node: 3, Process: proc, Count: 50}},
		Policy:       PolicyForward,
		NodeFailures: []NodeFailure{{Node: 2, At: 100}},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows[3]
	if fs.Delivered == fs.Created || res.LostToFailures == 0 {
		t.Fatalf("failure had no effect: %+v, lost %d", fs, res.LostToFailures)
	}
}

func TestRandomGeometricFacade(t *testing.T) {
	topo, err := NewRandomGeometricTopology(120, 10, 1.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NodeCount() != 121 || !topo.Connected() {
		t.Fatalf("deployment: %d nodes, connected=%v", topo.NodeCount(), topo.Connected())
	}
	// And it simulates end-to-end: pick the node farthest from the sink.
	far := NodeID(0)
	best := -1.0
	for _, id := range topo.Nodes() {
		p, err := topo.PositionOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Distance(Position{}); d > best {
			best, far = d, id
		}
	}
	if err := topo.MarkSource(far); err != nil {
		t.Fatal(err)
	}
	proc, err := PeriodicTraffic(5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ExponentialDelay(20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology: topo,
		Sources:  []Source{{Node: far, Process: proc, Count: 100}},
		Policy:   PolicyRCAD,
		Delay:    dist,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[far].Delivered != 100 {
		t.Fatalf("delivered %d/100 on random field", res.Flows[far].Delivered)
	}
}

func TestBatchMeansFacade(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i % 10)
	}
	r, err := BatchMeans(samples, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Mean-4.5) > 1e-9 {
		t.Fatalf("batch mean = %v, want 4.5", r.Mean)
	}
}

func TestMMInfTransientFacade(t *testing.T) {
	v, err := MMInfTransientMean(0.5, 1.0/30, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := 15 * (1 - math.Exp(-1))
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("transient mean = %v, want %v", v, want)
	}
}
