package network

// Engine reuse: newRunner builds only structure (routes, nodes and pools),
// and every run, a fresh runner's only run included, goes through rearm,
// which drains the scheduler, rewinds the arena, reseeds the node
// substreams, builds or resets the buffering policies and adopts the run's
// full config. Structure is reused; behaviour always comes from the run's
// config, which is what makes a run on a reused runner byte-identical to
// Run. An EngineCache keeps idle runners by structure for RunBorrowed.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"tempriv/internal/buffer"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/seal"
)

// runResolved runs one simulation of a resolved config on r: rearm,
// schedule, execute, finalize. id is cfg's structural identity. res is the
// result to refill: nil for a fresh, caller-owned one, or an idle borrowed
// one.
func (r *runner) runResolved(cfg Config, id structure, res *Result) (*Result, error) {
	if err := r.rearm(cfg, id, res); err != nil {
		return nil, err
	}
	if err := r.scheduleSources(); err != nil {
		return nil, err
	}
	r.scheduleFailures()
	r.attachSampler()
	if err := r.sched.Run(); err != nil {
		return nil, fmt.Errorf("network: simulation: %w", err)
	}
	if r.tele != nil && r.tele.err != nil {
		return nil, fmt.Errorf("network: telemetry emitter: %w", r.tele.err)
	}
	r.finalize()
	res = r.result
	// The Result and the config belong to the caller: a kept runner holds
	// only its structure and pools between runs, never the last run's
	// deliveries, observers or traffic processes.
	r.result, r.cfg, r.tele = nil, Config{}, nil
	return res, nil
}

// structure is the part of a config that is baked into a runner's built
// objects and that rearm therefore cannot change: the routes and node
// table (the topology's node count and sorted edge set), the buffer
// capacities, the victim selectors and the Erlang design point. Every other
// field is adopted fresh by each run. It is the runner's identity: an
// EngineCache files runners under it, and rearm rejects a config whose
// identity differs from the construction one. It is comparable and exact:
// equal identities mean equal structure, with no hash in between.
type structure struct {
	policy      PolicyKind
	capacity    int
	victimType  reflect.Type
	victimName  string
	rateControl RateControl // the zero value when rate control is off
	withRC      bool
	nodes       int
	edges       string // each sorted edge's two IDs, big-endian, four bytes per edge
}

// structureOf computes the structural identity of a resolved config.
func structureOf(cfg *Config) structure {
	id := structure{
		policy:     cfg.Policy,
		capacity:   cfg.Capacity,
		victimType: reflect.TypeOf(cfg.Victim),
		victimName: cfg.Victim.Name(),
		nodes:      cfg.Topology.NodeCount(),
	}
	if rc := cfg.RateControl; rc != nil {
		id.rateControl, id.withRC = *rc, true
	}
	edges := cfg.Topology.Edges()
	var b strings.Builder
	b.Grow(4 * len(edges))
	for _, e := range edges {
		b.WriteByte(byte(e[0] >> 8))
		b.WriteByte(byte(e[0]))
		b.WriteByte(byte(e[1] >> 8))
		b.WriteByte(byte(e[1]))
	}
	id.edges = b.String()
	return id
}

// rearm resets every piece of run-scoped state and adopts cfg as the run's
// configuration. It is the one place a run is armed — a fresh runner's
// first run included — so every run travels the identical path. id is
// cfg's structural identity; it must equal the construction identity. res
// is the result the run fills: nil for a fresh one, or an idle borrowed
// result, which is refilled in place.
func (r *runner) rearm(cfg Config, id structure, res *Result) error {
	if id != r.id {
		return errors.New("network: engine reuse: config structure (topology, policy, capacity, victim rule or rate-control design point) differs from construction")
	}

	r.cfg = cfg
	r.sched.Reset()
	r.arena.reset()
	if res == nil {
		res = &Result{
			Flows: make(map[packet.NodeID]*FlowStats),
			Nodes: make(map[packet.NodeID]*NodeStats),
		}
	}
	// A count-bounded run's counts bound its deliveries, because ARQ
	// duplicates are filtered before the append: Deliveries is sized once
	// and never regrows. A horizon-bound run keeps append growth.
	bound := 0
	if cfg.Horizon == 0 {
		for _, s := range cfg.Sources {
			bound += s.Count
		}
	}
	res.recycle(bound)
	r.result = res
	clear(r.dead)
	if cfg.Seal {
		r.keyring = seal.NewKeyring([]byte(fmt.Sprintf("tempriv/network/%d", cfg.Seed)))
	} else {
		r.keyring = nil
	}
	r.tele = newTelemetryState(cfg.Telemetry)

	// Per-node rearm, in ID order: a split never advances its parent, so
	// the substreams do not depend on the order, but the custom-policy
	// factories' scheduler calls do. Every substream a node keeps is
	// derived in place, so a warm rearm allocates none.
	master := rng.New(cfg.Seed)
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		n.dead = false
		n.parent = n.parent0
		n.delivered = n.delivered[:0]
		n.dist = cfg.Delay
		if d, ok := cfg.PerNodeDelay[n.id]; ok {
			n.dist = d
		}
		master.SplitIndexedInto(n.src, "node", int(n.id))
		switch {
		case cfg.Channel == nil:
			n.link = nil
		case n.link == nil:
			n.link = newLinkChannel(*cfg.Channel, n.src.Split("link"))
		default:
			n.link.cfg = *cfg.Channel
			n.link.bad = false
			n.src.SplitInto(n.link.src, "link")
		}
		n.draw = n.src
		if cfg.Policy == PolicyRCAD {
			// Reseeds the preemptive buffer's victim stream in place; the
			// node's delays draw from it too.
			n.src.SplitInto(&n.victim, "victim")
			n.draw = &n.victim
		}
		if n.policy == nil || cfg.Policy == PolicyCustom {
			// A built-in policy is built on the engine's first run. A
			// custom policy is run-scoped: its factory may close over
			// caller state or arm timers on the scheduler just reset, so
			// every run builds fresh instances.
			if err := r.attachPolicy(n); err != nil {
				return err
			}
			continue
		}
		// A switch on the concrete built-ins, not an assertion to an
		// interface: the runtime caches interface assertions per call
		// site and allocates, at random, while it fills that cache, and a
		// warm rearm allocates nothing.
		switch p := n.policy.(type) {
		case *buffer.Unlimited:
			p.Reset()
		case *buffer.DropTail:
			p.Reset()
		case *buffer.Preemptive:
			p.Reset()
		}
		if n.ctrl != nil {
			// Re-derives the planned-delay cap from the adopted
			// distribution.
			n.ctrl.Reset(n.dist.Mean())
		}
	}
	return nil
}

// pktSlabSize is the number of packets per arena slab; pktMaxSlabs caps the
// arena's retained footprint (256 slabs × 1024 packets ≈ 15 MB) — a run
// whose in-flight peak exceeds it falls back to plain heap allocation for
// the excess, trading speed for a bounded pool.
const (
	pktSlabSize = 1024
	pktMaxSlabs = 256
)

// pktArena allocates packets from reusable slabs. A packet's lifetime ends
// at the sink: arriveAtSink releases it to the free list, which alloc
// drains before bumping into fresh slab space, so the arena holds a run's
// in-flight peak rather than every packet the run creates. Releasing there
// is safe because nothing reads a packet after its sink arrival: the
// flight is released before the arrival runs, the ARQ duplicate is cloned
// before delivery, and Deliveries and trace events copy Header and Truth
// by value (custom policies promise not to read a packet after passing it
// to forward). Packets lost in the network are reclaimed by the next
// reset, which the engine calls only between runs.
type pktArena struct {
	slabs [][]packet.Packet
	cur   int // index of the slab currently being filled
	used  int // packets handed out of slabs[cur]
	free  []*packet.Packet
}

// alloc returns a zeroed packet: a released one if any, else the next slab
// slot, growing the arena up to the slab cap and spilling to the heap past
// it.
func (a *pktArena) alloc() *packet.Packet {
	if k := len(a.free); k > 0 {
		p := a.free[k-1]
		a.free = a.free[:k-1]
		*p = packet.Packet{}
		return p
	}
	for {
		if a.cur == len(a.slabs) {
			if len(a.slabs) == pktMaxSlabs {
				return &packet.Packet{}
			}
			a.slabs = append(a.slabs, make([]packet.Packet, pktSlabSize))
		}
		if a.used < pktSlabSize {
			p := &a.slabs[a.cur][a.used]
			a.used++
			*p = packet.Packet{}
			return p
		}
		a.cur++
		a.used = 0
	}
}

// release returns a packet whose run is over to the free list.
func (a *pktArena) release(p *packet.Packet) { a.free = append(a.free, p) }

// reset rewinds the arena so the next run refills the same slabs.
func (a *pktArena) reset() {
	clear(a.free) // drop spilled heap packets
	a.free = a.free[:0]
	a.cur, a.used = 0, 0
}

// newPacket is the arena-backed packet.New: same fields, no heap
// allocation in the steady state.
func (r *runner) newPacket(origin packet.NodeID, seq uint32, createdAt float64) *packet.Packet {
	p := r.arena.alloc()
	p.Header.PrevHop = origin
	p.Header.Origin = origin
	p.Header.RoutingSeq = seq
	p.Truth = packet.Truth{CreatedAt: createdAt, Flow: origin, Seq: seq}
	return p
}

// clonePacket is the arena-backed packet.Clone, used by the ARQ
// lost-acknowledgement duplicate path.
func (r *runner) clonePacket(p *packet.Packet) *packet.Packet {
	c := r.arena.alloc()
	*c = *p
	return c
}

// EngineCache pools engines (built runners) by structural identity so
// sweeps and replicate batches reuse them instead of rebuilding one per
// run; RunBorrowed is the way to run through it. Every field rearm adopts
// fresh (seed, traffic, delays, channel, ARQ, horizon, failures, observers)
// may differ between runs that share an engine. Each identity keeps a stack
// of idle engines: a run pops one, or builds one when the stack is empty,
// and pushes it back when it succeeds, so a stack never holds more engines
// than the peak number of concurrent runs of its structure.
//
// The cache also keeps one stack of idle results: a run pops one, of
// whatever engine or structure filled it last, and refills it in place; it
// goes back when the borrower's callback returns. That stack never holds
// more results than the peak number of concurrent runs.
//
// It is safe for concurrent use: a checked-out engine or result belongs to
// one run until it is checked back in.
type EngineCache struct {
	mu      sync.Mutex
	stacks  map[structure][]*runner
	results []*Result
}

// NewEngineCache returns an empty engine cache.
func NewEngineCache() *EngineCache {
	return &EngineCache{stacks: make(map[structure][]*runner)}
}

// checkout pops an idle engine of structure id, or returns nil.
func (c *EngineCache) checkout(id structure) *runner {
	c.mu.Lock()
	defer c.mu.Unlock()
	stack := c.stacks[id]
	k := len(stack)
	if k == 0 {
		return nil
	}
	r := stack[k-1]
	stack[k-1] = nil
	c.stacks[id] = stack[:k-1]
	return r
}

// checkin pushes an idle engine of structure id.
func (c *EngineCache) checkin(id structure, r *runner) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stacks[id] = append(c.stacks[id], r)
}

// borrow pops an idle result, or returns nil.
func (c *EngineCache) borrow() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := len(c.results)
	if k == 0 {
		return nil
	}
	res := c.results[k-1]
	c.results[k-1] = nil
	c.results = c.results[:k-1]
	return res
}

// giveBack pushes a result whose borrower is done with it.
func (c *EngineCache) giveBack(res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, res)
}

// run executes cfg on an engine of its structure, building one when none
// is idle, and checks the engine back in after a successful run; on an
// error the engine is discarded. res is passed to runResolved.
func (c *EngineCache) run(cfg Config, res *Result) (*Result, error) {
	resolved, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	id := structureOf(&resolved)
	r := c.checkout(id)
	if r == nil {
		if r, err = newRunner(resolved, id); err != nil {
			return nil, err
		}
	}
	if res, err = r.runResolved(resolved, id, res); err != nil {
		return nil, err
	}
	c.checkin(id, r)
	return res, nil
}

// RunBorrowed is Run through an engine cache, for a caller that consumes
// the result in one place: structurally compatible runs reuse one engine's
// routes, pools and arena instead of rebuilding them, custom-policy and
// observed (Tracer, Telemetry) runs included, and the run's result is
// passed to use, which borrows it. The result is valid only until use
// returns; use must not keep it, or anything it points to, past that. The
// cache then keeps it as an idle result, and a later RunBorrowed through
// the same cache refills it in place — on any engine, of any structure —
// instead of allocating a new one: Deliveries keeps its backing array
// (re-made only when the run's count bound exceeds its capacity), Flows and
// Nodes are cleared and refilled with the same stats structs, and every
// other field is zeroed. What use sees is byte-identical to Run's result,
// by the rearm contract. A nil cache runs once, as Run does, and then calls
// use. A run error is returned without calling use, and the engine and the
// result it was filling are dropped; otherwise RunBorrowed returns use's
// error.
func RunBorrowed(cache *EngineCache, cfg Config, use func(*Result) error) error {
	if cache == nil {
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		return use(res)
	}
	res, err := cache.run(cfg, cache.borrow())
	if err != nil {
		return err
	}
	err = use(res)
	cache.giveBack(res)
	return err
}
