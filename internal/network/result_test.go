package network

import (
	"math"
	"runtime/debug"
	"testing"

	"tempriv/internal/adversary"
	"tempriv/internal/delay"
	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/routing"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

// figure1Config is the paper's evaluation run: the Figure 1 topology, four
// periodic sources at 1/λ = 2 sending count packets each, 1/µ = 30, k = 10.
func figure1Config(t *testing.T, policy PolicyKind, count int) Config {
	t.Helper()
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: topo, Policy: policy, Capacity: 10, Seed: 7}
	if policy != PolicyForward {
		cfg.Delay = mustDist(delay.NewExponential(30))
	}
	proc := mustProc(traffic.NewPeriodic(2))
	for _, s := range sources {
		cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: count})
	}
	return cfg
}

// TestScoreMatchesSliceScorers holds the in-place scoring loop to the
// slice scorers it replaced: on Figure 1 results of every buffering case,
// and an ARQ run whose sink suppressed duplicates, Result.Score must give
// the same Float64bits of every flow's Value and Bias, and of the all-flow
// accumulator, as adversary.ScorePerFlow and adversary.Score over
// Observations and Truths — for the baseline, adaptive, path-aware and
// lattice estimators. The adaptive and path-aware estimators keep state
// across observations, so each pass gets a fresh one.
func TestScoreMatchesSliceScorers(t *testing.T) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.BuildTree(topo)
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[packet.NodeID][]packet.NodeID, len(sources))
	for _, s := range sources {
		full, err := routes.Path(s)
		if err != nil {
			t.Fatal(err)
		}
		paths[s] = full[:len(full)-1]
	}

	arq := figure1Config(t, PolicyRCAD, 300)
	arq.Channel = &ChannelConfig{LossP: 0.1, AckLossP: 0.3}
	arq.ARQ = DefaultARQ()
	runs := map[string]Config{
		"no-delay":  figure1Config(t, PolicyForward, 300),
		"unlimited": figure1Config(t, PolicyUnlimited, 300),
		"rcad":      figure1Config(t, PolicyRCAD, 300),
		"rcad-arq":  arq,
	}
	for name, cfg := range runs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "rcad-arq" && res.DuplicatesSuppressed == 0 {
			t.Fatalf("%s: no duplicates suppressed; the case does not cover the ARQ filter", name)
		}
		const mean = 30.0
		estimators := map[string]func() (adversary.Estimator, error){
			"baseline": func() (adversary.Estimator, error) { return adversary.NewBaseline(1, mean) },
			"adaptive": func() (adversary.Estimator, error) { return adversary.NewAdaptive(1, mean, 10, 0.1) },
			"path-aware": func() (adversary.Estimator, error) {
				return adversary.NewPathAware(1, mean, 10, 0.1, paths)
			},
			"lattice": func() (adversary.Estimator, error) {
				b, err := adversary.NewBaseline(1, mean)
				if err != nil {
					return nil, err
				}
				return adversary.NewLattice(b, 2)
			},
		}
		for estName, build := range estimators {
			fresh := func() adversary.Estimator {
				est, err := build()
				if err != nil {
					t.Fatalf("%s/%s: %v", name, estName, err)
				}
				return est
			}
			wantFlows, err := adversary.ScorePerFlow(fresh(), res.Observations(), res.Truths())
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := adversary.Score(fresh(), res.Observations(), res.Truths())
			if err != nil {
				t.Fatal(err)
			}
			all, perFlow, err := res.Score(fresh())
			if err != nil {
				t.Fatal(err)
			}
			label := name + "/" + estName
			sameMSE(t, label+" all flows", all, wantAll)
			if len(perFlow) != len(wantFlows) {
				t.Fatalf("%s: %d flows scored, want %d", label, len(perFlow), len(wantFlows))
			}
			for flow, want := range wantFlows {
				got, ok := perFlow[flow]
				if !ok {
					t.Fatalf("%s: flow %v not scored", label, flow)
				}
				sameMSE(t, label, got, want)
			}
		}
	}
}

// sameMSE fails unless two accumulators agree bit for bit.
func sameMSE(t *testing.T, label string, got, want *metrics.MSE) {
	t.Helper()
	if got.Count() != want.Count() ||
		math.Float64bits(got.Value()) != math.Float64bits(want.Value()) ||
		math.Float64bits(got.Bias()) != math.Float64bits(want.Bias()) {
		t.Fatalf("%s: MSE (n=%d, %v, bias %v), want (n=%d, %v, bias %v)",
			label, got.Count(), got.Value(), got.Bias(), want.Count(), want.Value(), want.Bias())
	}
}

// TestEngineResultAllocatesOnce gates the copy-free result path on a reused
// engine running Figure 1 into fresh, owned results. Deliveries is
// allocated once, at the sources' total count: a lossless run fills it
// exactly, with no room a regrowth would have left. And nothing on the
// result path grows with the run's length: the latency samples are sized
// before they are filled, so a run of 1200 packets per source allocates
// exactly as often as one of 300. (Both counts exceed 255, so boxing them
// into the config fingerprint allocates alike.)
func TestEngineResultAllocatesOnce(t *testing.T) {
	large, small := figure1Config(t, PolicyRCAD, 1200), figure1Config(t, PolicyRCAD, 300)
	cache := NewEngineCache()
	res, err := runCached(cache, large) // warms the pools and the arena at the larger size
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 4800 || cap(res.Deliveries) != 4800 {
		t.Fatalf("Deliveries len %d cap %d, want 4800 and 4800", len(res.Deliveries), cap(res.Deliveries))
	}
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	run := func(cfg Config) func() {
		return func() {
			if _, err := runCached(cache, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A collection during the measurement can empty a sync.Pool whose
	// refills would count as run allocations, so the collector stays off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocsSmall := testing.AllocsPerRun(5, run(small))
	allocsLarge := testing.AllocsPerRun(5, run(large))
	if allocsLarge != allocsSmall {
		t.Errorf("Run allocates %v times at 1200 packets per source and %v at 300: the result path regrows with run length",
			allocsLarge, allocsSmall)
	}
}
