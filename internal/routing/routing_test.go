package routing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"tempriv/internal/packet"
	"tempriv/internal/topology"
)

func mustLine(t *testing.T, hops int) *topology.Topology {
	t.Helper()
	topo, err := topology.Line(hops)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildTreeLine(t *testing.T) {
	topo := mustLine(t, 4)
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		id := packet.NodeID(i)
		next, ok := table.NextHop(id)
		if !ok || next != packet.NodeID(i-1) {
			t.Fatalf("NextHop(%d) = %v,%v, want %d", i, next, ok, i-1)
		}
		h, ok := table.HopCount(id)
		if !ok || h != i {
			t.Fatalf("HopCount(%d) = %d,%v, want %d", i, h, ok, i)
		}
	}
	if _, ok := table.NextHop(topology.Sink); ok {
		t.Fatal("sink has a next hop")
	}
	if h, ok := table.HopCount(topology.Sink); !ok || h != 0 {
		t.Fatalf("sink hop count = %d,%v", h, ok)
	}
}

func TestBuildTreeGridDistances(t *testing.T) {
	topo, err := topology.Grid(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Min-hop distance on a 4-neighbour grid is the Manhattan distance to
	// the sink corner.
	for y := 0; y < 5; y++ {
		for x := 0; x < 6; x++ {
			id := topology.GridID(6, x, y)
			h, ok := table.HopCount(id)
			if !ok || h != x+y {
				t.Fatalf("grid (%d,%d) hop count = %d,%v, want %d", x, y, h, ok, x+y)
			}
		}
	}
}

func TestBuildTreeDeterministicTieBreak(t *testing.T) {
	// Node 3 can reach the sink through 1 or 2; BFS must pick the smaller
	// parent ID deterministically.
	topo := topology.New()
	topo.AddNode(1, topology.Position{})
	topo.AddNode(2, topology.Position{})
	topo.AddNode(3, topology.Position{})
	for _, link := range [][2]packet.NodeID{{topology.Sink, 1}, {topology.Sink, 2}, {1, 3}, {2, 3}} {
		if err := topo.AddLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		table, err := BuildTree(topo)
		if err != nil {
			t.Fatal(err)
		}
		next, ok := table.NextHop(3)
		if !ok || next != 1 {
			t.Fatalf("run %d: NextHop(3) = %v, want 1 (deterministic tie-break)", i, next)
		}
	}
}

func TestBuildTreeUnreachable(t *testing.T) {
	topo := topology.New()
	topo.AddNode(1, topology.Position{})
	topo.AddNode(2, topology.Position{})
	if err := topo.AddLink(topology.Sink, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildTree(topo); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("disconnected topology: %v, want ErrUnreachable", err)
	}
}

func TestPath(t *testing.T) {
	topo := mustLine(t, 3)
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	path, err := table.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []packet.NodeID{3, 2, 1, 0}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	sinkPath, err := table.Path(topology.Sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinkPath) != 1 || sinkPath[0] != topology.Sink {
		t.Fatalf("Path(sink) = %v", sinkPath)
	}
	if _, err := table.Path(99); err == nil {
		t.Fatal("Path of unknown node succeeded")
	}
}

func TestFlowPaths(t *testing.T) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := table.FlowPaths(sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(sources) {
		t.Fatalf("%d paths for %d sources", len(paths), len(sources))
	}
	for _, s := range sources {
		full, err := table.Path(s)
		if err != nil {
			t.Fatal(err)
		}
		got := paths[s]
		hops, _ := table.HopCount(s)
		if len(got) != hops || got[0] != s {
			t.Fatalf("flow %v: path %v, want %d buffering nodes from the source", s, got, hops)
		}
		for i := range got {
			if got[i] != full[i] || got[i] == topology.Sink {
				t.Fatalf("flow %v: path %v, full route %v", s, got, full)
			}
		}
	}
	if _, err := table.FlowPaths([]packet.NodeID{99}); err == nil {
		t.Fatal("FlowPaths of an unknown source succeeded")
	}
}

func TestChildren(t *testing.T) {
	topo, sources, err := topology.MergeTree([]int{4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Trunk head (2 hops from sink) should have both private segments as
	// descendants; with hop count 4 and trunk 2 each flow has 1 private
	// relay, so the trunk head has exactly 2 children.
	trunkHead := packet.NodeID(2)
	if h, _ := table.HopCount(trunkHead); h != 2 {
		t.Fatalf("node 2 is not the trunk head (hop count %d)", h)
	}
	kids := table.Children(trunkHead)
	if len(kids) != 2 {
		t.Fatalf("trunk head children = %v, want 2 children", kids)
	}
	_ = sources
}

func TestFigure1PathsAndHopCounts(t *testing.T) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range topology.Figure1HopCounts {
		h, ok := table.HopCount(sources[i])
		if !ok || h != want {
			t.Fatalf("S%d hop count = %d, want %d", i+1, h, want)
		}
		path, err := table.Path(sources[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != want+1 {
			t.Fatalf("S%d path length = %d, want %d", i+1, len(path), want+1)
		}
	}
}

func TestAggregateRatesLine(t *testing.T) {
	topo := mustLine(t, 3)
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := table.AggregateRates(map[packet.NodeID]float64{3: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Every node on the path carries the single flow's rate.
	for _, id := range []packet.NodeID{0, 1, 2, 3} {
		if math.Abs(agg[id]-0.5) > 1e-12 {
			t.Fatalf("agg[%v] = %v, want 0.5", id, agg[id])
		}
	}
}

func TestAggregateRatesSuperposition(t *testing.T) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	rates := make(map[packet.NodeID]float64)
	for i, src := range sources {
		rates[src] = float64(i+1) * 0.1
	}
	agg, err := table.AggregateRates(rates)
	if err != nil {
		t.Fatal(err)
	}
	// The sink and the shared trunk carry the sum of all four flows (§4
	// superposition); each source carries only its own.
	wantTotal := 0.1 + 0.2 + 0.3 + 0.4
	if math.Abs(agg[topology.Sink]-wantTotal) > 1e-12 {
		t.Fatalf("sink aggregate = %v, want %v", agg[topology.Sink], wantTotal)
	}
	for i, src := range sources {
		if math.Abs(agg[src]-float64(i+1)*0.1) > 1e-12 {
			t.Fatalf("source %d aggregate = %v", i, agg[src])
		}
	}
	// Trunk nodes are IDs 1..3 by MergeTree construction.
	for trunk := packet.NodeID(1); trunk <= 3; trunk++ {
		if math.Abs(agg[trunk]-wantTotal) > 1e-12 {
			t.Fatalf("trunk %v aggregate = %v, want %v", trunk, agg[trunk], wantTotal)
		}
	}
}

func TestAggregateRatesErrors(t *testing.T) {
	topo := mustLine(t, 2)
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.AggregateRates(map[packet.NodeID]float64{9: 1}); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := table.AggregateRates(map[packet.NodeID]float64{2: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestMaxHops(t *testing.T) {
	topo, _, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.MaxHops(); got != 22 {
		t.Fatalf("MaxHops = %d, want 22 (flow S2)", got)
	}
}

func TestNodesSorted(t *testing.T) {
	topo := mustLine(t, 5)
	table, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	nodes := table.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("Nodes() length = %d, want 6", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes() not sorted: %v", nodes)
		}
	}
}

// Property: on any line topology, the path from the source has length
// hops+1 and hop counts decrease by one per step.
func TestLinePathProperty(t *testing.T) {
	f := func(raw uint8) bool {
		hops := int(raw%30) + 1
		topo, err := topology.Line(hops)
		if err != nil {
			return false
		}
		table, err := BuildTree(topo)
		if err != nil {
			return false
		}
		path, err := table.Path(packet.NodeID(hops))
		if err != nil || len(path) != hops+1 {
			return false
		}
		for i, n := range path {
			h, ok := table.HopCount(n)
			if !ok || h != hops-i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeAvoidingGrid(t *testing.T) {
	topo, err := topology.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	avoid := map[packet.NodeID]bool{
		topology.GridID(4, 1, 0): true, // n1
		topology.GridID(4, 1, 1): true, // n5
	}
	table := BuildTreeAvoiding(topo, avoid)

	// Avoided nodes are absent from the tree.
	for id := range avoid {
		if _, ok := table.HopCount(id); ok {
			t.Fatalf("avoided node %v present in tree", id)
		}
	}
	// No surviving path may cross an avoided node.
	for _, n := range table.Nodes() {
		path, err := table.Path(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, hop := range path {
			if avoid[hop] {
				t.Fatalf("path of %v crosses avoided node %v: %v", n, hop, path)
			}
		}
	}
	// n2 = (2,0) lost its 2-hop Manhattan route through n1, and the row-1
	// detour is blocked at n5, so the shortest live path crosses column 1
	// at row 2: (2,0)→(2,1)→(2,2)→(1,2)→(0,2)→(0,1)→sink, 6 hops.
	if h, ok := table.HopCount(topology.GridID(4, 2, 0)); !ok || h != 6 {
		t.Fatalf("detour hop count = %d,%v, want 6", h, ok)
	}
}

func TestBuildTreeAvoidingOrphans(t *testing.T) {
	// On a line, killing the middle node orphans everything behind it —
	// BuildTreeAvoiding must tolerate that, not error.
	topo := mustLine(t, 4)
	table := BuildTreeAvoiding(topo, map[packet.NodeID]bool{2: true})
	if _, ok := table.HopCount(1); !ok {
		t.Fatal("node 1 (still connected) missing from tree")
	}
	for _, orphan := range []packet.NodeID{2, 3, 4} {
		if _, ok := table.HopCount(orphan); ok {
			t.Fatalf("orphaned node %v present in tree", orphan)
		}
		if _, ok := table.NextHop(orphan); ok {
			t.Fatalf("orphaned node %v has a next hop", orphan)
		}
	}
}

func TestBuildTreeAvoidingNilMatchesBuildTree(t *testing.T) {
	topo, err := topology.Grid(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	avoiding := BuildTreeAvoiding(topo, nil)
	for _, n := range full.Nodes() {
		fp, fok := full.NextHop(n)
		ap, aok := avoiding.NextHop(n)
		if fok != aok || fp != ap {
			t.Fatalf("NextHop(%v): BuildTree %v,%v vs BuildTreeAvoiding %v,%v", n, fp, fok, ap, aok)
		}
	}
}

func TestBuildTreeAvoidingDeterministic(t *testing.T) {
	topo, err := topology.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	avoid := map[packet.NodeID]bool{6: true, 12: true, 18: true}
	first := BuildTreeAvoiding(topo, avoid)
	for i := 0; i < 10; i++ {
		again := BuildTreeAvoiding(topo, avoid)
		for _, n := range first.Nodes() {
			fp, _ := first.NextHop(n)
			ap, aok := again.NextHop(n)
			if n != topology.Sink && (!aok || fp != ap) {
				t.Fatalf("run %d: NextHop(%v) = %v,%v, want %v", i, n, ap, aok, fp)
			}
		}
	}
}
