package network

// Engine: the reusable form of the simulation runner. Construction
// (NewEngine) builds only structure: routes, nodes and pools. Every Run,
// the first one included, goes through rearm, which drains the scheduler,
// rewinds the arena, reseeds the node substreams, builds or resets the
// buffering policies and adopts the full config passed to Run. Structure is
// reused; behaviour always comes from the caller's config, which is what
// makes a reused engine byte-identical to a fresh one.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/seal"
	"tempriv/internal/telemetry"
)

// Engine is a reusable simulation instance. It amortises the structural
// work of a run — route building, buffering policies, timer/flight/entry
// pools, the packet arena — across many runs of structurally compatible
// configs (same topology, policy, capacity, victim rule and rate-control
// design point; everything else, including the seed, delay distributions,
// traffic processes and observers, is adopted fresh from the config passed
// to each Run). Built-in buffering policies are built by the first Run and
// reset by later ones; custom policies are run-scoped, so every Run calls
// the CustomPolicy factory afresh.
//
// An Engine is not safe for concurrent use; give each worker goroutine its
// own (see EngineCache for the checkout/checkin discipline the experiment
// layer uses). The Result returned by Run is owned by the caller and is
// never touched by later runs.
type Engine struct {
	r *runner
}

// NewEngine validates cfg and builds the engine's structure (routes, nodes,
// pools) without arming or executing anything. The config's structural
// fields fix the engine's identity; Run may then be called any number of
// times with configs that differ in seed, delays, traffic, failures,
// observers or horizon. Errors from building a buffering policy surface
// from Run, which builds the policies.
func NewEngine(cfg Config) (*Engine, error) {
	resolved, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(resolved)
	if err != nil {
		return nil, err
	}
	return &Engine{r: r}, nil
}

// Run executes one simulation of cfg on the engine, reusing the built
// structure. It returns an error (and leaves the engine unusable for
// reuse) if cfg is structurally incompatible with the construction config.
func (e *Engine) Run(cfg Config) (*Result, error) {
	resolved, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	return e.runResolved(resolved)
}

// runResolved is Run after resolveConfig: rearm, schedule, execute,
// finalize.
func (e *Engine) runResolved(cfg Config) (*Result, error) {
	r := e.r
	if err := r.rearm(cfg); err != nil {
		return nil, err
	}
	if err := r.scheduleSources(); err != nil {
		return nil, err
	}
	r.scheduleFailures()
	r.attachSampler()
	start := time.Now()
	if err := r.sched.Run(); err != nil {
		return nil, fmt.Errorf("network: simulation: %w", err)
	}
	wall := time.Since(start).Seconds()
	if r.tele != nil && r.tele.err != nil {
		return nil, fmt.Errorf("network: telemetry emitter: %w", r.tele.err)
	}
	r.finalize()
	m, err := r.buildManifest(wall)
	if err != nil {
		return nil, err
	}
	r.result.Manifest = m
	return r.result, nil
}

// rearm resets every piece of run-scoped state and adopts cfg as the run's
// configuration. It is the one place a run is armed — a fresh engine's
// first run included — so every run travels the identical path.
func (r *runner) rearm(cfg Config) error {
	// Structural compatibility — checked against the construction config
	// while r.cfg still holds it. These are the fields baked into built
	// objects (routes, buffer capacities, victim selectors, the Erlang
	// design point) that a rearm cannot change.
	if cfg.Policy != r.cfg.Policy {
		return fmt.Errorf("network: engine reuse: policy %v differs from construction policy %v", cfg.Policy, r.cfg.Policy)
	}
	if cfg.Capacity != r.cfg.Capacity {
		return fmt.Errorf("network: engine reuse: capacity %d differs from construction capacity %d", cfg.Capacity, r.cfg.Capacity)
	}
	if fmt.Sprintf("%T", cfg.Victim) != fmt.Sprintf("%T", r.cfg.Victim) {
		return fmt.Errorf("network: engine reuse: victim rule %T differs from construction rule %T", cfg.Victim, r.cfg.Victim)
	}
	switch {
	case (cfg.RateControl == nil) != (r.cfg.RateControl == nil):
		return errors.New("network: engine reuse: rate control cannot be toggled")
	case cfg.RateControl != nil && *cfg.RateControl != *r.cfg.RateControl:
		return errors.New("network: engine reuse: rate-control design point differs from construction")
	}
	if cfg.Topology != r.cfg.Topology {
		if len(cfg.Topology.Nodes()) != len(r.cfg.Topology.Nodes()) || !sameEdges(r.edges0, sortedEdges(cfg.Topology)) {
			return errors.New("network: engine reuse: topology differs from construction topology")
		}
	}

	r.cfg = cfg
	r.sched.Reset()
	r.arena.reset()
	r.result = &Result{
		Flows: make(map[packet.NodeID]*FlowStats),
		Nodes: make(map[packet.NodeID]*NodeStats),
	}
	if cfg.Horizon == 0 {
		// Every source is count-bounded, and ARQ duplicates are filtered
		// before the append, so the counts bound the deliveries: the
		// backing array is allocated once and never regrows. A
		// horizon-bound run keeps append growth.
		total := 0
		for _, s := range cfg.Sources {
			total += s.Count
		}
		r.result.Deliveries = make([]Delivery, 0, total)
	}
	clear(r.dead)
	if cfg.ARQ != nil {
		// Duplicates exist only when a delivered frame can be
		// retransmitted, i.e. under ARQ; a reliable or ARQ-less run needs
		// no filter.
		if r.dedup == nil {
			r.dedup = make(map[uint64]struct{})
		} else {
			clear(r.dedup)
		}
	} else {
		r.dedup = nil
	}
	if cfg.Seal {
		r.keyring = seal.NewKeyring([]byte(fmt.Sprintf("tempriv/network/%d", cfg.Seed)))
	} else {
		r.keyring = nil
	}
	r.tele = newTelemetryState(cfg.Telemetry)

	// Per-node rearm, in ID order: Split never advances its parent, so the
	// substreams do not depend on the order, but the custom-policy
	// factories' scheduler calls do.
	master := rng.New(cfg.Seed)
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		n.dead = false
		n.parent = n.parent0
		n.dist = cfg.Delay
		if d, ok := cfg.PerNodeDelay[n.id]; ok {
			n.dist = d
		}
		n.src.SetTo(master.SplitIndexed("node", int(n.id)))
		switch {
		case cfg.Channel == nil:
			n.link = nil
		case n.link == nil:
			n.link = newLinkChannel(*cfg.Channel, n.src.Split("link"))
		default:
			n.link.cfg = *cfg.Channel
			n.link.bad = false
			n.link.src.SetTo(n.src.Split("link"))
		}
		switch {
		case n.rcad != nil:
			// Reseeds the buffer's shared victim stream and re-derives the
			// controller's planned-delay cap from the adopted distribution.
			n.rcad.Reset(n.dist, n.src.Split("victim"))
		case n.policy != nil && cfg.Policy != PolicyCustom:
			if res, ok := n.policy.(interface{ Reset() }); ok {
				res.Reset()
			}
		default:
			// A built-in policy is built on the engine's first run. A
			// custom policy is run-scoped: its factory may close over
			// caller state or arm timers on the scheduler just reset, so
			// every run builds fresh instances.
			if err := r.attachPolicy(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameEdges reports whether two sorted edge lists are equal.
func sameEdges(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pktSlabSize is the number of packets per arena slab; pktMaxSlabs caps the
// arena's retained footprint (256 slabs × 1024 packets ≈ 15 MB) — a run
// that creates more packets falls back to plain heap allocation for the
// excess, trading speed for a bounded pool.
const (
	pktSlabSize = 1024
	pktMaxSlabs = 256
)

// pktArena bump-allocates packets from reusable slabs. Packets allocated
// from the arena are valid until the next reset — which the engine calls
// only between runs, and every packet's lifetime ends at its run's sink
// (Deliveries copies Header and Truth by value; nothing in a Result points
// into the arena).
type pktArena struct {
	slabs [][]packet.Packet
	cur   int // index of the slab currently being filled
	used  int // packets handed out of slabs[cur]
}

// alloc returns a zeroed packet from the arena, growing it up to the slab
// cap and spilling to the heap past it.
func (a *pktArena) alloc() *packet.Packet {
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

// reset rewinds the arena so the next run refills the same slabs.
func (a *pktArena) reset() { a.cur, a.used = 0, 0 }

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

// EngineCache pools engines by structural config identity so sweeps and
// replicate batches reuse instances instead of rebuilding them per run. It
// is safe for concurrent use: Get checks an engine out (removing it from
// the cache), so two goroutines racing on the same key never share one —
// the loser simply builds a fresh engine and both are checked back in.
type EngineCache struct {
	mu      sync.Mutex
	engines map[string]*Engine
}

// NewEngineCache returns an empty engine cache.
func NewEngineCache() *EngineCache {
	return &EngineCache{engines: make(map[string]*Engine)}
}

// checkout removes and returns the cached engine for key, or nil.
func (c *EngineCache) checkout(key string) *Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.engines[key]
	if e != nil {
		delete(c.engines, key)
	}
	return e
}

// checkin returns an engine to the cache under key, replacing any engine
// another goroutine checked in meanwhile (the replaced one is dropped).
func (c *EngineCache) checkin(key string, e *Engine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.engines[key] = e
}

// engineKey is the structural identity a cached engine is filed under: the
// canonical config fingerprint (topology, policy, capacity, victim name,
// link model, …) plus the victim rule's concrete type. Fields the rearm
// path adopts fresh — and the seed, which the fingerprint already excludes
// as a replicate label — may differ between runs filed under one key.
func engineKey(cfg *Config) (string, error) {
	fp, err := telemetry.Fingerprint(canonicalConfig(cfg))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|victim=%T", fp, cfg.Victim), nil
}

// RunCached is Run through an engine cache: structurally compatible runs
// reuse one engine's routes, pools and arena instead of rebuilding them.
// Results are byte-identical to plain Run by the rearm contract, for custom
// policies and attached observers (Tracer, Telemetry) too. A nil cache
// falls back to a one-shot run. On a run error the engine is discarded,
// not returned to the cache.
func RunCached(cache *EngineCache, cfg Config) (*Result, error) {
	if cache == nil {
		return Run(cfg)
	}
	resolved, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	key, err := engineKey(&resolved)
	if err != nil {
		return nil, err
	}
	e := cache.checkout(key)
	if e == nil {
		r, err := newRunner(resolved)
		if err != nil {
			return nil, err
		}
		e = &Engine{r: r}
	}
	res, err := e.runResolved(resolved)
	if err != nil {
		return nil, err
	}
	cache.checkin(key, e)
	return res, nil
}
