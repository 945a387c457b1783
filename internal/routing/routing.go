// Package routing computes sink-rooted routing trees over a topology.
//
// The paper's network model uses TinyOS-style multihop tree routing (§2):
// every node forwards toward the sink along a min-hop parent. BuildTree runs
// a breadth-first search from the sink with deterministic tie-breaking
// (smallest node ID wins), so a given topology always yields the same tree —
// a requirement for reproducible experiments. BuildTreeAvoiding is the same
// search excluding a set of dead nodes; the network layer uses it to repair
// routes after an injected node failure.
//
// The Table also exposes the load-propagation helper AggregateRates, which
// implements §4's Poisson-superposition argument: the packet rate seen by a
// node is the sum of the rates of every source whose routing path passes
// through it. The Erlang-loss planner in package core consumes this to pick
// per-node delay parameters.
package routing

import (
	"errors"
	"fmt"
	"sort"

	"tempriv/internal/packet"
	"tempriv/internal/topology"
)

// ErrUnreachable is returned when a node has no path to the sink.
var ErrUnreachable = errors.New("routing: node cannot reach the sink")

// Table is a sink-rooted routing tree: every reachable node has a parent one
// hop closer to the sink.
type Table struct {
	parent map[packet.NodeID]packet.NodeID
	hops   map[packet.NodeID]int
}

// BuildTree computes the min-hop routing tree of topo by BFS from the sink.
// Ties between equal-distance parents break toward the smaller node ID. It
// returns an error if any placed node cannot reach the sink, since a
// disconnected deployment cannot deliver its readings.
func BuildTree(topo *topology.Topology) (*Table, error) {
	t := BuildTreeAvoiding(topo, nil)
	if len(t.hops) != topo.NodeCount() {
		return nil, fmt.Errorf("%w: %d of %d nodes unreachable",
			ErrUnreachable, topo.NodeCount()-len(t.hops), topo.NodeCount())
	}
	return t, nil
}

// BuildTreeAvoiding computes the min-hop routing tree of topo by BFS from
// the sink, skipping every node marked true in avoid — the route-repair
// primitive: rebuilding the tree after a failure excludes the dead nodes.
// Tie-breaking is the same as BuildTree (smaller node ID wins), so repair
// is deterministic. Unlike BuildTree it tolerates unreachable survivors:
// a node whose every path to the sink crosses an avoided node is simply
// absent from the returned table (NextHop/HopCount report !ok for it).
func BuildTreeAvoiding(topo *topology.Topology, avoid map[packet.NodeID]bool) *Table {
	t := &Table{
		parent: make(map[packet.NodeID]packet.NodeID),
		hops:   map[packet.NodeID]int{topology.Sink: 0},
	}
	frontier := []packet.NodeID{topology.Sink}
	for len(frontier) > 0 {
		// Neighbors() is sorted and the frontier is processed in ID order,
		// so parent assignment is deterministic.
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		var next []packet.NodeID
		for _, n := range frontier {
			for _, m := range topo.Neighbors(n) {
				if avoid[m] {
					continue
				}
				if _, seen := t.hops[m]; seen {
					continue
				}
				t.hops[m] = t.hops[n] + 1
				t.parent[m] = n
				next = append(next, m)
			}
		}
		frontier = next
	}
	return t
}

// NextHop returns the parent of n on the path to the sink. ok is false for
// the sink itself (which has no parent) and for unknown nodes.
func (t *Table) NextHop(n packet.NodeID) (packet.NodeID, bool) {
	p, ok := t.parent[n]
	return p, ok
}

// HopCount returns the number of hops from n to the sink, and whether n is
// in the tree. The sink's hop count is 0.
func (t *Table) HopCount(n packet.NodeID) (int, bool) {
	h, ok := t.hops[n]
	return h, ok
}

// Path returns the full routing path from n to the sink, inclusive of both
// endpoints. For the sink it returns [sink].
func (t *Table) Path(n packet.NodeID) ([]packet.NodeID, error) {
	if _, ok := t.hops[n]; !ok {
		return nil, fmt.Errorf("routing: %v not in tree", n)
	}
	path := []packet.NodeID{n}
	for n != topology.Sink {
		n = t.parent[n]
		path = append(path, n)
	}
	return path, nil
}

// FlowPaths returns, for each source, the buffering nodes on its routing
// path: the source first, through the last relay, with the sink dropped
// because it does not buffer. It is the path-aware adversary's input;
// routing is deterministic, so it matches every run's routes.
func (t *Table) FlowPaths(sources []packet.NodeID) (map[packet.NodeID][]packet.NodeID, error) {
	paths := make(map[packet.NodeID][]packet.NodeID, len(sources))
	for _, s := range sources {
		full, err := t.Path(s)
		if err != nil {
			return nil, err
		}
		paths[s] = full[:len(full)-1]
	}
	return paths, nil
}

// Nodes returns every node in the tree, sorted ascending.
func (t *Table) Nodes() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(t.hops))
	for id := range t.hops {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Children returns the nodes whose parent is n, sorted ascending.
func (t *Table) Children(n packet.NodeID) []packet.NodeID {
	var out []packet.NodeID
	for child, parent := range t.parent {
		if parent == n {
			out = append(out, child)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AggregateRates propagates per-source packet rates down the routing tree
// and returns, for every node, the total packet rate that transits or
// originates at that node. This realises §4's superposition property: node
// i's arrival process aggregates the flows of all its routing descendants.
// Sources not present in the tree cause an error.
func (t *Table) AggregateRates(sourceRates map[packet.NodeID]float64) (map[packet.NodeID]float64, error) {
	agg := make(map[packet.NodeID]float64, len(t.hops))
	for src, rate := range sourceRates {
		if rate < 0 {
			return nil, fmt.Errorf("routing: negative rate %v for source %v", rate, src)
		}
		path, err := t.Path(src)
		if err != nil {
			return nil, fmt.Errorf("routing: aggregating rates: %w", err)
		}
		for _, n := range path {
			agg[n] += rate
		}
	}
	return agg, nil
}

// MaxHops returns the largest hop count in the tree (the network depth).
func (t *Table) MaxHops() int {
	maxH := 0
	for _, h := range t.hops {
		if h > maxH {
			maxH = h
		}
	}
	return maxH
}
