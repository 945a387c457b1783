package network

// Tests of engine reuse across configs: an EngineCache files engines by
// structure alone, so one engine runs configs that differ in everything
// rearm adopts fresh. Each test compares against a fresh Run.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tempriv/internal/delay"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
	"tempriv/internal/traffic"
)

// reuseShape is the structural part of a config: everything the cache
// files engines under.
type reuseShape struct {
	topo     int // 0 line, 1 grid, 2 Figure 1
	policy   PolicyKind
	capacity int
	rateCtl  bool
}

// shapeTopology builds a fresh copy of the shape's topology and its
// sources.
func shapeTopology(t *testing.T, kind int) (*topology.Topology, []packet.NodeID) {
	t.Helper()
	var topo *topology.Topology
	var err error
	switch kind {
	case 0:
		topo, err = topology.Line(5)
	case 1:
		topo, err = topology.Grid(3, 3)
		if err == nil {
			err = topo.MarkSource(topology.GridID(3, 2, 2))
		}
		if err == nil {
			err = topo.MarkSource(topology.GridID(3, 2, 0))
		}
	default:
		var sources []packet.NodeID
		topo, sources, err = topology.Figure1()
		if err == nil {
			return topo, sources
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return topo, topo.Sources()
}

// observers are the tracer and telemetry a config may carry; a nil field
// means the run is not observed that way.
type observers struct {
	trace   *trace.Memory
	samples *telemetry.Memory
}

// randomReuseConfig draws one config of the shape: traffic kind, rate,
// count and horizon; delay distribution, mean and per-node overrides;
// channel and ARQ; failures, repair and sealing; tracer and telemetry.
// lossy forces the channel and ARQ on or off. It returns a builder, because
// the on-off process is stateful: every run needs its own.
func randomReuseConfig(t *testing.T, sh reuseShape, src *rng.Source, lossy bool) func() (Config, observers) {
	t.Helper()
	procKind, interval := src.Intn(3), 1+5*src.Float64()
	count, horizon := 10+src.Intn(30), 0.0
	if src.Bernoulli(0.3) {
		count, horizon = 0, 40+80*src.Float64()
	}
	seed, seal := src.Uint64(), src.Bernoulli(0.2)
	distKind, mean := src.Intn(3), 2+10*src.Float64()
	perNode, perNodeMean := src.Bernoulli(0.3), 1+4*src.Float64()
	lossP, burst, retries := 0.05+0.1*src.Float64(), src.Bernoulli(0.5), 1+src.Intn(3)
	fail, failAt, repair := src.Bernoulli(0.3), 10+30*src.Float64(), src.Bernoulli(0.5)
	traced, sampled := src.Bernoulli(0.3), src.Bernoulli(0.3)
	return func() (Config, observers) {
		topo, sources := shapeTopology(t, sh.topo)
		var proc traffic.Process
		switch procKind {
		case 0:
			proc = mustProc(traffic.NewPeriodic(interval))
		case 1:
			proc = mustProc(traffic.NewPoisson(1 / interval))
		default:
			proc = mustProc(traffic.NewOnOff(1/interval, 5*interval, 3*interval))
		}
		cfg := Config{
			Topology: topo,
			Policy:   sh.policy,
			Capacity: sh.capacity,
			Horizon:  horizon,
			Seed:     seed,
			Seal:     seal,
		}
		for _, s := range sources {
			cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: count})
		}
		switch distKind {
		case 0:
			cfg.Delay = mustDist(delay.NewExponential(mean))
		case 1:
			cfg.Delay = mustDist(delay.NewUniform(mean))
		default:
			cfg.Delay = mustDist(delay.NewPareto(mean, 2.5))
		}
		if perNode {
			cfg.PerNodeDelay = map[packet.NodeID]delay.Distribution{
				sources[0]: mustDist(delay.NewExponential(perNodeMean)),
			}
		}
		if sh.rateCtl {
			cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
		}
		if lossy {
			cfg.Channel = &ChannelConfig{LossP: lossP, Burst: burst, BurstLossP: 0.5, AckLossP: 0.05}
			cfg.ARQ = &ARQConfig{MaxRetries: retries}
		}
		if fail {
			cfg.NodeFailures = []NodeFailure{{Node: sources[0], At: failAt}}
			cfg.RouteRepair = repair
		}
		var obs observers
		if traced {
			obs.trace = &trace.Memory{}
			cfg.Tracer = obs.trace
		}
		if sampled {
			obs.samples = &telemetry.Memory{}
			cfg.Telemetry = &telemetry.Config{Registry: telemetry.NewRegistry(), SampleEvery: 5, Emitter: obs.samples}
		}
		return cfg, obs
	}
}

// observedRun runs a freshly built config and returns the result
// signature, trace and samples.
func observedRun(t *testing.T, run func(Config) (*Result, error), build func() (Config, observers)) (string, []trace.Event, []telemetry.Sample) {
	t.Helper()
	cfg, obs := build()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	var samples []telemetry.Sample
	if obs.trace != nil {
		events = obs.trace.Events()
	}
	if obs.samples != nil {
		samples = obs.samples.Samples()
	}
	return resultSignature(t, res), events, samples
}

// TestCachedReuseAcrossConfigsMatchesRun is the property test behind the
// structural key: for structures drawn across Line, Grid and Figure 1, the
// four built-in policies, capacity and rate control, a random sequence of
// configs that differ in everything rearm adopts runs through one cache,
// each config twice, owned and borrowed, and every result, trace and
// sample series must equal a fresh Run. The channel and ARQ go on, off and
// on again at the start of every sequence, so link state left by a lossy
// run is exercised.
func TestCachedReuseAcrossConfigsMatchesRun(t *testing.T) {
	src := rng.New(20261017)
	policies := []PolicyKind{PolicyForward, PolicyUnlimited, PolicyDropTail, PolicyRCAD}
	const shapes, steps = 12, 6
	for i := 0; i < shapes; i++ {
		sh := reuseShape{topo: i % 3, policy: policies[(i/3)%4], capacity: 3 + src.Intn(8)}
		sh.rateCtl = sh.policy == PolicyRCAD && src.Bernoulli(0.5)
		t.Run(fmt.Sprintf("topo%d-%v-k%d-rc%v", sh.topo, sh.policy, sh.capacity, sh.rateCtl), func(t *testing.T) {
			cache := NewEngineCache()
			for step := 0; step < steps; step++ {
				lossy := []bool{true, false, true}[min(step, 2)]
				if step > 2 {
					lossy = src.Bernoulli(0.5)
				}
				build := randomReuseConfig(t, sh, src, lossy)
				wantSig, wantEvents, wantSamples := observedRun(t, Run, build)
				for _, path := range []string{"runCached", "RunBorrowed"} {
					var sig string
					var events []trace.Event
					var samples []telemetry.Sample
					if path == "runCached" {
						sig, events, samples = observedRun(t, func(c Config) (*Result, error) { return runCached(cache, c) }, build)
					} else {
						sig, events, samples, _ = borrowedRun(t, cache, build)
					}
					switch {
					case sig != wantSig:
						t.Fatalf("step %d %s: result diverged from Run\nwant: %.300s\ngot:  %.300s", step, path, wantSig, sig)
					case !reflect.DeepEqual(events, wantEvents):
						t.Fatalf("step %d %s: trace diverged from Run", step, path)
					case !reflect.DeepEqual(samples, wantSamples):
						t.Fatalf("step %d %s: samples diverged from Run", step, path)
					}
				}
			}
			if n := idleEngines(cache); n != 1 {
				t.Fatalf("cache holds %d engines after a serial sequence of one structure, want 1", n)
			}
		})
	}
}

// stackSizes reports the number of idle engines per structure.
func stackSizes(c *EngineCache) map[structure]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[structure]int, len(c.stacks))
	for id, stack := range c.stacks {
		out[id] = len(stack)
	}
	return out
}

// idleRunner returns the one engine a cache holds, failing unless it holds
// exactly one.
func idleRunner(t *testing.T, c *EngineCache) *runner {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var idle []*runner
	for _, stack := range c.stacks {
		idle = append(idle, stack...)
	}
	if len(idle) != 1 {
		t.Fatalf("cache holds %d engines, want 1", len(idle))
	}
	return idle[0]
}

// TestEngineCacheConcurrentRunsMatchRun shares one cache between goroutines
// running three structures at once: every result must match Run, and no
// stack may end up holding more engines than there are goroutines. CI runs
// it under -race -count=10.
func TestEngineCacheConcurrentRunsMatchRun(t *testing.T) {
	shapes := []reuseShape{
		{topo: 2, policy: PolicyRCAD, capacity: 10},
		{topo: 2, policy: PolicyUnlimited, capacity: 10},
		{topo: 1, policy: PolicyDropTail, capacity: 4},
	}
	const goroutines, runs = 4, 6
	type job struct {
		cfg  Config
		want string
		got  *Result
		err  error
	}
	src := rng.New(7)
	jobs := make([][]job, goroutines)
	for g := range jobs {
		for i := 0; i < runs; i++ {
			build := randomReuseConfig(t, shapes[(g+i)%len(shapes)], src, src.Bernoulli(0.5))
			want, _, _ := observedRun(t, Run, build)
			cfg, _ := build()
			jobs[g] = append(jobs[g], job{cfg: cfg, want: want})
		}
	}
	cache := NewEngineCache()
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(mine []job) {
			defer wg.Done()
			for i := range mine {
				mine[i].got, mine[i].err = runCached(cache, mine[i].cfg)
			}
		}(jobs[g])
	}
	wg.Wait()
	for g := range jobs {
		for i, j := range jobs[g] {
			if j.err != nil {
				t.Fatalf("goroutine %d run %d: %v", g, i, j.err)
			}
			if resultSignature(t, j.got) != j.want {
				t.Fatalf("goroutine %d run %d: cached result diverged from Run", g, i)
			}
		}
	}
	sizes := stackSizes(cache)
	if len(sizes) != len(shapes) {
		t.Fatalf("cache holds %d structures, want %d", len(sizes), len(shapes))
	}
	for _, n := range sizes {
		if n < 1 || n > goroutines {
			t.Fatalf("a stack holds %d engines with %d goroutines", n, goroutines)
		}
	}
}

// sweepPoint is one Figure-1 run of a rate sweep.
func sweepPoint(t *testing.T, policy PolicyKind, interarrival float64, count int, seed uint64) Config {
	t.Helper()
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	proc := mustProc(traffic.NewPeriodic(interarrival))
	cfg := Config{Topology: topo, Policy: policy, Seed: seed}
	if policy != PolicyForward {
		cfg.Delay = mustDist(delay.NewExponential(30))
	}
	for _, s := range sources {
		cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: count})
	}
	return cfg
}

// TestEngineCacheStacksBoundedByWorkers pins the cache's memory bound on a
// figure-style sweep of 10 rates × 3 policies: W workers keep at most W
// engines per policy, and a serial sweep keeps exactly one per policy, so
// engines grow with workers × structures, never with sweep points.
func TestEngineCacheStacksBoundedByWorkers(t *testing.T) {
	policies := []PolicyKind{PolicyForward, PolicyUnlimited, PolicyRCAD}
	sweep := func(workers int) map[structure]int {
		cache := NewEngineCache()
		points := make(chan Config)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for cfg := range points {
					if err := RunBorrowed(cache, cfg, func(*Result) error { return nil }); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		for rate := 1; rate <= 10; rate++ {
			for _, policy := range policies {
				points <- sweepPoint(t, policy, float64(2*rate), 20, uint64(rate))
			}
		}
		close(points)
		wg.Wait()
		return stackSizes(cache)
	}
	const workers = 4
	parallel := sweep(workers)
	if len(parallel) != len(policies) {
		t.Fatalf("%d-worker sweep filed %d structures, want %d", workers, len(parallel), len(policies))
	}
	for _, n := range parallel {
		if n > workers {
			t.Fatalf("%d-worker sweep keeps %d engines of one policy", workers, n)
		}
	}
	serial := sweep(1)
	if len(serial) != len(policies) {
		t.Fatalf("serial sweep filed %d structures, want %d", len(serial), len(policies))
	}
	for _, n := range serial {
		if n != 1 {
			t.Fatalf("serial sweep keeps %d engines of one policy, want 1", n)
		}
	}
}

// TestArenaHoldsInFlightPeak pins the packet arena at the run's in-flight
// peak: after a Figure-1 run at 1/λ = 2 with 1000 packets per source, a
// reused engine's arena holds one slab, where the run's 4000 packets would
// need four without recycling at the sink.
func TestArenaHoldsInFlightPeak(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyUnlimited, PolicyRCAD} {
		cache := NewEngineCache()
		for seed := uint64(1); seed <= 2; seed++ {
			err := RunBorrowed(cache, sweepPoint(t, policy, 2, 1000, seed), func(res *Result) error {
				if len(res.Deliveries) != 4000 {
					t.Fatalf("%v: delivered %d of 4000 packets", policy, len(res.Deliveries))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if slabs := len(idleRunner(t, cache).arena.slabs); slabs > 1 {
			t.Errorf("%v: arena holds %d slabs of %d packets after a 4000-packet run, want 1", policy, slabs, pktSlabSize)
		}
	}
}
