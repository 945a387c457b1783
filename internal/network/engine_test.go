package network

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/mix"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
	"tempriv/internal/traffic"
)

// resultSignature serialises everything observable about a Result.
func resultSignature(t *testing.T, res *Result) string {
	t.Helper()
	sig, err := signature(res)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return sig
}

// signature is resultSignature for goroutines other than the test's.
func signature(res *Result) (string, error) {
	b, err := json.Marshal(res)
	return string(b), err
}

// runCached runs cfg through the cache into a fresh result the caller
// owns: the path RunBorrowed takes when the cache holds no idle result.
func runCached(cache *EngineCache, cfg Config) (*Result, error) { return cache.run(cfg, nil) }

// borrowedSignature runs cfg through RunBorrowed and returns the signature
// of the result it lent.
func borrowedSignature(t *testing.T, cache *EngineCache, cfg Config) string {
	t.Helper()
	var sig string
	if err := RunBorrowed(cache, cfg, func(res *Result) error {
		sig = resultSignature(t, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sig
}

// engineSpec is one randomly drawn simulation shape for the reuse property
// test. buildConfig materialises a fresh Config (fresh traffic processes —
// OnOff is stateful — and fresh distribution values) for a given seed, the
// same way a well-behaved engine caller would.
type engineSpec struct {
	name  string
	build func(seed uint64) Config
}

// mustProc and mustDist unwrap constructor results; the configs under test
// are all statically valid, so a failure is a test bug worth panicking on.
func mustProc(p traffic.Process, err error) traffic.Process {
	if err != nil {
		panic(fmt.Sprintf("traffic: %v", err))
	}
	return p
}

func mustDist(d delay.Distribution, err error) delay.Distribution {
	if err != nil {
		panic(fmt.Sprintf("delay: %v", err))
	}
	return d
}

// randomEngineSpecs draws a set of structurally varied configs: topology,
// policy, channel/ARQ, failures, sealing, rate control and traffic process
// all vary, covering every subsystem rearm has to reset.
func randomEngineSpecs(t *testing.T, src *rng.Source, n int) []engineSpec {
	t.Helper()
	specs := make([]engineSpec, 0, n)
	for i := 0; i < n; i++ {
		i := i
		topoKind := src.Intn(3)
		policy := []PolicyKind{PolicyForward, PolicyUnlimited, PolicyDropTail, PolicyRCAD}[src.Intn(4)]
		procKind := src.Intn(3)
		withChannel := src.Bernoulli(0.4)
		withARQ := withChannel && src.Bernoulli(0.6)
		withFailure := src.Bernoulli(0.3)
		withRepair := withFailure && src.Bernoulli(0.5)
		withSeal := src.Bernoulli(0.2)
		withRateCtl := policy == PolicyRCAD && src.Bernoulli(0.4)
		withPerNode := policy != PolicyForward && src.Bernoulli(0.3)
		packets := 20 + src.Intn(40)
		interval := 1 + 4*src.Float64()
		capacity := 3 + src.Intn(8)

		build := func(seed uint64) Config {
			var topo *topology.Topology
			var sources []packet.NodeID
			var err error
			switch topoKind {
			case 0:
				topo, err = topology.Line(5)
				if err == nil {
					sources = topo.Sources()
				}
			case 1:
				topo, err = topology.Grid(3, 3)
				if err == nil {
					far := topology.GridID(3, 2, 2)
					if err = topo.MarkSource(far); err == nil {
						sources = topo.Sources()
					}
				}
			default:
				topo, sources, err = topology.Figure1()
			}
			if err != nil {
				t.Fatalf("spec %d: topology: %v", i, err)
			}
			var proc traffic.Process
			switch procKind {
			case 0:
				proc = mustProc(traffic.NewPeriodic(interval))
			case 1:
				proc = mustProc(traffic.NewPoisson(1 / interval))
			default:
				// Stateful process: the adopt-new-config contract is what
				// keeps this correct across engine reuse.
				proc = mustProc(traffic.NewOnOff(1/interval, 5*interval, 3*interval))
			}
			cfg := Config{
				Topology: topo,
				Policy:   policy,
				Capacity: capacity,
				Seed:     seed,
				Seal:     withSeal,
			}
			for _, s := range sources {
				cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: packets})
			}
			if policy != PolicyForward {
				cfg.Delay = mustDist(delay.NewExponential(8))
			}
			if withPerNode {
				cfg.PerNodeDelay = map[packet.NodeID]delay.Distribution{
					sources[0]: mustDist(delay.NewUniform(4)),
				}
			}
			if withRateCtl {
				cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
			}
			if withChannel {
				cfg.Channel = &ChannelConfig{LossP: 0.1, Burst: true, BurstLossP: 0.5}
				if withARQ {
					cfg.ARQ = &ARQConfig{MaxRetries: 3}
					cfg.Channel.AckLossP = 0.05
				}
			}
			if withFailure {
				cfg.NodeFailures = []NodeFailure{{Node: sources[0], At: float64(packets) * interval / 2}}
				cfg.RouteRepair = withRepair
			}
			return cfg
		}
		specs = append(specs, engineSpec{
			name: fmt.Sprintf("spec%02d/topo%d-policy%v-proc%d-ch%v-arq%v-fail%v-seal%v",
				i, topoKind, policy, procKind, withChannel, withARQ, withFailure, withSeal),
			build: build,
		})
	}
	return specs
}

// TestEngineReuseMatchesFreshRuns is the no-state-leakage property test: for
// each randomly drawn simulation shape, running seeds s, s+1, s+2 through
// RunBorrowed on one cache, and so on one reused engine and one refilled
// result, must produce byte-identical results to running each seed on its
// own fresh engine. Any run-scoped state surviving rearm — a stale route, a
// warm RNG, a dirty buffer, arena or dedup entry — shows up as a signature
// mismatch.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	src := rng.New(20260808)
	const seeds = 3
	for _, spec := range randomEngineSpecs(t, src, 12) {
		t.Run(spec.name, func(t *testing.T) {
			fresh := make([]string, seeds)
			for s := 0; s < seeds; s++ {
				res, err := Run(spec.build(uint64(1000 + s)))
				if err != nil {
					t.Fatalf("fresh run seed %d: %v", s, err)
				}
				fresh[s] = resultSignature(t, res)
			}
			cache := NewEngineCache()
			for s := 0; s < seeds; s++ {
				if got := borrowedSignature(t, cache, spec.build(uint64(1000+s))); got != fresh[s] {
					t.Fatalf("seed %d: reused engine diverged from fresh run\nfresh:  %.200s\nreused: %.200s", s, fresh[s], got)
				}
			}
			// Re-running the first seed after the others must also replay it
			// exactly (reuse is order-independent, not just append-only).
			if got := borrowedSignature(t, cache, spec.build(1000)); got != fresh[0] {
				t.Fatalf("replaying seed 0 after other seeds diverged")
			}
			if n := idleEngines(cache); n != 1 {
				t.Fatalf("cache holds %d engines after a serial sweep of one structure, want 1", n)
			}
		})
	}
}

// TestSparseNodeIDs runs a topology whose IDs leave wide holes — {0, 3, 900,
// 65535}, as AddNode allows — through RCAD on reliable links: every packet
// must reach the sink, and a reused engine must reproduce network.Run byte
// for byte.
func TestSparseNodeIDs(t *testing.T) {
	build := func(seed uint64) Config {
		topo := topology.New()
		for _, id := range []packet.NodeID{3, 900, 65535} {
			topo.AddNode(id, topology.Position{X: float64(id)})
		}
		for _, l := range [][2]packet.NodeID{{topology.Sink, 900}, {900, 3}, {900, 65535}} {
			if err := topo.AddLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		proc := mustProc(traffic.NewPoisson(0.5))
		return Config{
			Topology: topo,
			Sources:  []Source{{Node: 3, Process: proc, Count: 200}, {Node: 65535, Process: proc, Count: 200}},
			Policy:   PolicyRCAD,
			Delay:    mustDist(delay.NewExponential(30)),
			Capacity: 4,
			Seed:     seed,
		}
	}
	cache := NewEngineCache()
	for seed := uint64(1); seed <= 3; seed++ {
		fresh, err := Run(build(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(fresh.Deliveries); got != 400 {
			t.Fatalf("seed %d: delivered %d of 400 packets", seed, got)
		}
		if fresh.Nodes[900].Preemptions == 0 {
			t.Fatalf("seed %d: the shared node never preempted; the test does not load it", seed)
		}
		if borrowedSignature(t, cache, build(seed)) != resultSignature(t, fresh) {
			t.Fatalf("seed %d: reused engine diverged from network.Run", seed)
		}
	}
}

// idleEngines counts the engines a cache holds across all its stacks.
func idleEngines(c *EngineCache) int {
	n := 0
	for _, k := range stackSizes(c) {
		n += k
	}
	return n
}

// TestRunCachedMatchesRun pins the cache path with owned results: runCached
// through one shared cache must match plain Run for a seed sweep, and the
// cache must actually retain an engine between calls.
func TestRunCachedMatchesRun(t *testing.T) {
	cache := NewEngineCache()
	spec := randomEngineSpecs(t, rng.New(7), 1)[0]
	for s := 0; s < 4; s++ {
		cfg := spec.build(uint64(50 + s))
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("plain run: %v", err)
		}
		got, err := runCached(cache, spec.build(uint64(50+s)))
		if err != nil {
			t.Fatalf("cached run: %v", err)
		}
		if resultSignature(t, got) != resultSignature(t, want) {
			t.Fatalf("seed %d: runCached diverged from Run", s)
		}
	}
	if n := idleEngines(cache); n != 1 {
		t.Fatalf("cache holds %d engines after a structurally constant sweep, want 1", n)
	}
}

// mixConfig builds a Figure-1 run whose nodes all install the policy the
// factory builds. Every Figure-1 source sends count packets.
func mixConfig(t *testing.T, seed uint64, count int, factory func(*sim.Scheduler, buffer.Forward, *rng.Source) (buffer.Policy, error)) Config {
	t.Helper()
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	proc := mustProc(traffic.NewPeriodic(5))
	cfg := Config{Topology: topo, Policy: PolicyCustom, CustomPolicy: factory, Seed: seed}
	for _, s := range sources {
		cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: count})
	}
	return cfg
}

func timedMix(s *sim.Scheduler, f buffer.Forward, src *rng.Source) (buffer.Policy, error) {
	return mix.NewTimedMix(s, f, 30, src)
}

func poolMix(s *sim.Scheduler, f buffer.Forward, src *rng.Source) (buffer.Policy, error) {
	return mix.NewThresholdMix(s, f, 8, 2, src)
}

// TestTimerArmingFactoryDeliversOnEveryPath pins the lifecycle for
// policies that arm a timer when they are built: the timed mix schedules
// its first flush inside the factory, so the factory must run after the
// scheduler reset, on the first run of a fresh engine too. Run, RunBorrowed
// and runCached, the last two sharing one cache and so one reused engine,
// must each deliver every packet and agree byte-for-byte.
func TestTimerArmingFactoryDeliversOnEveryPath(t *testing.T) {
	const count = 40
	cache := NewEngineCache()
	for seed := uint64(1); seed <= 3; seed++ {
		paths := []struct {
			name string
			run  func(Config, func(*Result) error) error
		}{
			{"Run", func(c Config, use func(*Result) error) error { return RunBorrowed(nil, c, use) }},
			{"RunBorrowed", func(c Config, use func(*Result) error) error { return RunBorrowed(cache, c, use) }},
			{"runCached", func(c Config, use func(*Result) error) error {
				res, err := runCached(cache, c)
				if err != nil {
					return err
				}
				return use(res)
			}},
		}
		var want string
		for _, path := range paths {
			cfg := mixConfig(t, seed, count, timedMix)
			err := path.run(cfg, func(res *Result) error {
				if got, sent := len(res.Deliveries), count*len(cfg.Sources); got != sent {
					t.Fatalf("seed %d %s: delivered %d of %d packets", seed, path.name, got, sent)
				}
				sig := resultSignature(t, res)
				if want == "" {
					want = sig
				} else if sig != want {
					t.Fatalf("seed %d: %s diverged from Run", seed, path.name)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, path.name, err)
			}
		}
	}
	if n := idleEngines(cache); n != 1 {
		t.Fatalf("cache holds %d engines after serial runs of one structure, want 1", n)
	}
}

// TestRunCachedBypasses pins that the cache has no bypass left: observed
// runs (a trace recorder, a metrics registry and a sampler) and
// custom-policy runs go through one shared cache. Over a seed sweep they
// must match plain Run in trace events, samples, counter values and result
// signature, and the cache keeps one engine per structural shape. The two
// mixes share an engine: the factory is run-scoped, not structure.
func TestRunCachedBypasses(t *testing.T) {
	type observed struct {
		sig     string
		events  []trace.Event
		samples []telemetry.Sample
		metrics string
	}
	observe := func(t *testing.T, run func(Config) (*Result, error), cfg Config) observed {
		t.Helper()
		rec := &trace.Memory{}
		reg := telemetry.NewRegistry()
		mem := &telemetry.Memory{}
		cfg.Tracer = rec
		cfg.Telemetry = &telemetry.Config{Registry: reg, SampleEvery: 7, Emitter: mem}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prom strings.Builder
		if err := reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		return observed{resultSignature(t, res), rec.Events(), mem.Samples(), prom.String()}
	}
	shapes := []struct {
		name  string
		build func(seed uint64) Config
	}{
		{"rcad", func(seed uint64) Config {
			cfg := mixConfig(t, seed, 30, nil)
			cfg.Policy, cfg.CustomPolicy = PolicyRCAD, nil
			cfg.Delay = mustDist(delay.NewExponential(5))
			return cfg
		}},
		{"timed-mix", func(seed uint64) Config { return mixConfig(t, seed, 30, timedMix) }},
		{"pool-mix", func(seed uint64) Config { return mixConfig(t, seed, 30, poolMix) }},
	}
	cache := NewEngineCache()
	cached := func(c Config) (*Result, error) { return runCached(cache, c) }
	for seed := uint64(1); seed <= 4; seed++ {
		for _, sh := range shapes {
			want := observe(t, Run, sh.build(seed))
			got := observe(t, cached, sh.build(seed))
			switch {
			case len(want.events) == 0 || len(want.samples) == 0:
				t.Fatalf("seed %d %s: observers saw nothing", seed, sh.name)
			case got.sig != want.sig:
				t.Fatalf("seed %d %s: cached result diverged from Run", seed, sh.name)
			case !reflect.DeepEqual(got.events, want.events):
				t.Fatalf("seed %d %s: cached trace diverged from Run", seed, sh.name)
			case !reflect.DeepEqual(got.samples, want.samples):
				t.Fatalf("seed %d %s: cached samples diverged from Run", seed, sh.name)
			case got.metrics != want.metrics:
				t.Fatalf("seed %d %s: cached counters diverged from Run:\n%s\nwant:\n%s", seed, sh.name, got.metrics, want.metrics)
			}
		}
	}
	if n := idleEngines(cache); n != 2 {
		t.Fatalf("cache holds %d engines, want 2 (rcad, and one for both mixes)", n)
	}
}

// TestEngineRejectsStructuralMismatch locks in the rearm compatibility
// contract: structural fields baked into a built runner cannot change
// between runs. An EngineCache never hands a runner a config of another
// structure, so the guard is driven on the runner directly.
func TestEngineRejectsStructuralMismatch(t *testing.T) {
	build := func(cfg Config) *runner {
		t.Helper()
		resolved, err := resolveConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRunner(resolved, structureOf(&resolved))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	run := func(r *runner, cfg Config) (*Result, error) {
		resolved, err := resolveConfig(cfg)
		if err != nil {
			return nil, err
		}
		return r.runResolved(resolved, structureOf(&resolved), nil)
	}
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	proc := mustProc(traffic.NewPeriodic(2))
	base := func() Config {
		return Config{
			Topology: topo,
			Sources:  []Source{{Node: sources[0], Process: proc, Count: 10}},
			Policy:   PolicyRCAD,
			Delay:    mustDist(delay.NewExponential(5)),
			Capacity: 10,
			Seed:     1,
		}
	}
	r := build(base())
	for name, mutate := range map[string]func(*Config){
		"policy":       func(c *Config) { c.Policy = PolicyUnlimited },
		"capacity":     func(c *Config) { c.Capacity = 4 },
		"rate-control": func(c *Config) { c.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.5} },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := run(r, cfg); err == nil {
			t.Errorf("runner accepted a %s change across reuse", name)
		}
	}
	line, err := topology.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.Topology = line
	cfg.Sources = []Source{{Node: line.Sources()[0], Process: proc, Count: 10}}
	if _, err := run(r, cfg); err == nil {
		t.Error("runner accepted a topology change across reuse")
	}
	// A topology mutated in place keeps its pointer but not its structure:
	// the runner built on the six-hop line must not route the shortcut run
	// over its stale routes.
	line6, err := topology.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	lineCfg := Config{
		Topology: line6,
		Sources:  []Source{{Node: 6, Process: mustProc(traffic.NewPeriodic(5)), Count: 50}},
		Policy:   PolicyUnlimited,
		Delay:    mustDist(delay.NewExponential(10)),
		Seed:     3,
	}
	lineRunner := build(lineCfg)
	if err := line6.AddLink(6, topology.Sink); err != nil {
		t.Fatal(err)
	}
	if res, err := run(lineRunner, lineCfg); err == nil {
		t.Errorf("runner accepted a topology mutated in place (hop count %d)", res.Flows[6].HopCount)
	}
	// The runner stays usable after a rejected rearm is not promised; a
	// compatible config on a fresh runner must still work.
	cfg = base()
	cfg.Seed = 99
	if _, err := run(build(base()), cfg); err != nil {
		t.Fatalf("compatible rearm rejected: %v", err)
	}
}

// BenchmarkEngineReuse measures the amortisation the arena-backed engine
// buys: one sweep-point-like simulation run repeatedly through a reused
// engine versus a fresh engine per run. Both sides return owned results, so
// they differ only in building the engine.
func BenchmarkEngineReuse(b *testing.B) {
	build := func(seed uint64) Config {
		topo, sources, err := topology.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		proc, err := traffic.NewPeriodic(2)
		if err != nil {
			b.Fatal(err)
		}
		dist, err := delay.NewExponential(8)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Topology: topo, Policy: PolicyRCAD, Delay: dist, Seed: seed}
		for _, s := range sources {
			cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: 200})
		}
		return cfg
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(build(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		cache := NewEngineCache()
		if _, err := runCached(cache, build(0)); err != nil { // builds the engine
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runCached(cache, build(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
