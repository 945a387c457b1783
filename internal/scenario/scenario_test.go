package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tempriv/internal/network"
	"tempriv/internal/topology"
)

func validExperimentJSON() []byte {
	return []byte(`{"version":1,"experiment":{"id":"eq2-epi","packets":50,"interarrivals":[4]}}`)
}

func validSimulationJSON() []byte {
	return []byte(`{"version":1,"simulation":{"topology":{"kind":"line","hops":3},"packets":30}}`)
}

func TestParseFillsDefaults(t *testing.T) {
	s, err := Parse(validSimulationJSON())
	if err != nil {
		t.Fatal(err)
	}
	m := s.Simulation
	if m.Policy != "rcad" || m.Victim != "shortest-remaining" || m.Adversary != "baseline" {
		t.Fatalf("defaults not filled: %+v", m)
	}
	if m.Delay == nil || m.Delay.Dist != "exponential" || m.Delay.Mean != 30 {
		t.Fatalf("delay defaults not filled: %+v", m.Delay)
	}
	if m.Capacity != 10 || m.Tau != 1 || m.Seed != 1 || m.Replicates != 1 {
		t.Fatalf("numeric defaults not filled: %+v", m)
	}
	if m.Traffic.Kind != "periodic" || m.Traffic.Interval != 2 {
		t.Fatalf("traffic defaults not filled: %+v", m.Traffic)
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	implicit, err := Parse([]byte(`{"version":1,"experiment":{"id":"fig2a"}}`))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Parse([]byte(`{"version":1,"experiment":{"id":"fig2a","seed":1,"packets":1000,
		"interarrivals":[2,4,6,8,10,12,14,16,18,20],"mean_delay":30,"capacity":10,
		"tau":1,"threshold":0.1,"replicates":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := implicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := explicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("implicit and explicit defaults fingerprint differently: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp1)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base, err := Parse(validSimulationJSON())
	if err != nil {
		t.Fatal(err)
	}
	baseFP, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*Spec){
		"seed":     func(s *Spec) { s.Simulation.Seed = 2 },
		"packets":  func(s *Spec) { s.Simulation.Packets = 31 },
		"capacity": func(s *Spec) { s.Simulation.Capacity = 11 },
		"policy":   func(s *Spec) { s.Simulation.Policy = "delay-unlimited" },
		"delay":    func(s *Spec) { s.Simulation.Delay = &DelaySpec{Mean: 31} },
		"traffic":  func(s *Spec) { s.Simulation.Traffic.Interval = 3 },
	}
	for name, mutate := range variants {
		v, err := Parse(validSimulationJSON())
		if err != nil {
			t.Fatal(err)
		}
		mutate(&v)
		fp, err := v.Fingerprint()
		if err != nil {
			t.Fatalf("%s variant: %v", name, err)
		}
		if fp == baseFP {
			t.Fatalf("changing %s did not change the fingerprint", name)
		}
	}

	// The name label is excluded: renaming must not invalidate cache keys.
	named := base
	named.Name = "my scenario"
	fp, err := named.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != baseFP {
		t.Fatal("name changed the fingerprint")
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"unknown version":     `{"version":99,"experiment":{"id":"fig2a"}}`,
		"missing version":     `{"experiment":{"id":"fig2a"}}`,
		"no kind":             `{"version":1}`,
		"both kinds":          `{"version":1,"experiment":{"id":"fig2a"},"simulation":{"topology":{"kind":"figure1"}}}`,
		"unknown field":       `{"version":1,"bogus":true,"experiment":{"id":"fig2a"}}`,
		"unknown experiment":  `{"version":1,"experiment":{"id":"fig99"}}`,
		"trailing data":       `{"version":1,"experiment":{"id":"fig2a"}} {"x":1}`,
		"negative packets":    `{"version":1,"experiment":{"id":"fig2a","packets":-5}}`,
		"huge packets":        `{"version":1,"experiment":{"id":"fig2a","packets":2000000}}`,
		"zero interarrival":   `{"version":1,"experiment":{"id":"fig2a","interarrivals":[2,0]}}`,
		"negative mean delay": `{"version":1,"experiment":{"id":"fig2a","mean_delay":-1}}`,
		"threshold too big":   `{"version":1,"experiment":{"id":"fig2a","threshold":1.5}}`,
		"replicates too big":  `{"version":1,"experiment":{"id":"fig2a","replicates":1000}}`,
		"no topology":         `{"version":1,"simulation":{"packets":10}}`,
		"bad topology kind":   `{"version":1,"simulation":{"topology":{"kind":"torus"}}}`,
		"line with width":     `{"version":1,"simulation":{"topology":{"kind":"line","width":4}}}`,
		"figure1 with hops":   `{"version":1,"simulation":{"topology":{"kind":"figure1","hops":4}}}`,
		"bad policy":          `{"version":1,"simulation":{"topology":{"kind":"figure1"},"policy":"teleport"}}`,
		"delay with no-delay": `{"version":1,"simulation":{"topology":{"kind":"figure1"},"policy":"no-delay","delay":{"mean":5}}}`,
		"bad victim":          `{"version":1,"simulation":{"topology":{"kind":"figure1"},"victim":"newest"}}`,
		"bad adversary":       `{"version":1,"simulation":{"topology":{"kind":"figure1"},"adversary":"psychic"}}`,
		"loss above one":      `{"version":1,"simulation":{"topology":{"kind":"figure1"},"channel":{"loss_p":1.5}}}`,
		"ack loss sans arq":   `{"version":1,"simulation":{"topology":{"kind":"figure1"},"channel":{"loss_p":0.1,"ack_loss_p":0.1}}}`,
		"pareto bad shape":    `{"version":1,"simulation":{"topology":{"kind":"figure1"},"delay":{"dist":"pareto","shape":0.5}}}`,
		"poisson no rate":     `{"version":1,"simulation":{"topology":{"kind":"figure1"},"traffic":{"kind":"poisson"}}}`,
		"periodic with rate":  `{"version":1,"simulation":{"topology":{"kind":"figure1"},"traffic":{"kind":"periodic","rate":3}}}`,
		// Each packet costs about 1/(rate × on_mean) burst draws.
		"onoff sparse bursts": `{"version":1,"simulation":{"topology":{"kind":"line","hops":2},"traffic":{"kind":"onoff","rate":0.001,"on_mean":0.5,"off_mean":1}}}`,
		"not json":            `hello`,
		// The engine needs Gilbert–Elliott runs of at least one transmission.
		"burst shorter than one":    `{"version":1,"simulation":{"topology":{"kind":"figure1"},"channel":{"burst":true,"mean_burst_len":0.5}}}`,
		"good run shorter than one": `{"version":1,"simulation":{"topology":{"kind":"figure1"},"channel":{"burst":true,"mean_good_run":0.5}}}`,
		"rate control sans rcad":    `{"version":1,"simulation":{"topology":{"kind":"figure1"},"policy":"delay-droptail","rate_control":{"target_loss":0.1}}}`,
		"rate control no target":    `{"version":1,"simulation":{"topology":{"kind":"figure1"},"rate_control":{}}}`,
		"rate control target one":   `{"version":1,"simulation":{"topology":{"kind":"figure1"},"rate_control":{"target_loss":1}}}`,
		"failure at the sink":       `{"version":1,"simulation":{"topology":{"kind":"line","hops":3},"failures":[{"node":0,"at":10}]}}`,
		"failure past a line":       `{"version":1,"simulation":{"topology":{"kind":"line","hops":3},"failures":[{"node":4,"at":10}]}}`,
		"failure past figure1":      `{"version":1,"simulation":{"topology":{"kind":"figure1"},"failures":[{"node":34,"at":10}]}}`,
		"failure past a grid":       `{"version":1,"simulation":{"topology":{"kind":"grid","width":3,"height":3},"failures":[{"node":9,"at":10}]}}`,
		"failure past a field":      `{"version":1,"simulation":{"topology":{"kind":"random","nodes":20,"radius":4},"failures":[{"node":21,"at":10}]}}`,
		"negative failure node":     `{"version":1,"simulation":{"topology":{"kind":"figure1"},"failures":[{"node":-3,"at":10}]}}`,
		"negative failure time":     `{"version":1,"simulation":{"topology":{"kind":"figure1"},"failures":[{"node":3,"at":-1}]}}`,
		"failure time too late":     `{"version":1,"simulation":{"topology":{"kind":"figure1"},"failures":[{"node":3,"at":1e13}]}}`,
		"node failing twice":        `{"version":1,"simulation":{"topology":{"kind":"figure1"},"failures":[{"node":3,"at":10},{"node":3,"at":20}]}}`,
		"repair sans failures":      `{"version":1,"simulation":{"topology":{"kind":"grid"},"route_repair":true}}`,
		"field too many nodes":      `{"version":1,"simulation":{"topology":{"kind":"random","nodes":1025}}}`,
		"field of one node":         `{"version":1,"simulation":{"topology":{"kind":"random","nodes":1}}}`,
		"field side negative":       `{"version":1,"simulation":{"topology":{"kind":"random","side":-1}}}`,
		"field side too big":        `{"version":1,"simulation":{"topology":{"kind":"random","side":2e6}}}`,
		"field radius too big":      `{"version":1,"simulation":{"topology":{"kind":"random","radius":2e6}}}`,
		"field with hops":           `{"version":1,"simulation":{"topology":{"kind":"random","hops":3}}}`,
		"line with radius":          `{"version":1,"simulation":{"topology":{"kind":"line","radius":3}}}`,
		"too many failures": func() string {
			var failures []string
			for n := 1; n <= maxFailures+1; n++ {
				failures = append(failures, fmt.Sprintf(`{"node":%d,"at":%d}`, n, n))
			}
			return `{"version":1,"simulation":{"topology":{"kind":"grid"},"failures":[` + strings.Join(failures, ",") + `]}}`
		}(),
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted %s", name, doc)
		} else if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error not tagged ErrInvalid: %v", name, err)
		}
	}
}

// TestOnOffAtTheBurstBound: an on-off source with exactly minBurstPackets
// packets per burst is accepted, and its run stays cheap.
func TestOnOffAtTheBurstBound(t *testing.T) {
	spec, err := Parse([]byte(`{"version":1,"simulation":{"topology":{"kind":"line","hops":2},
		"traffic":{"kind":"onoff","rate":0.001,"on_mean":1,"off_mean":1},"packets":50}}`))
	if err != nil {
		t.Fatalf("spec at the bound rejected: %v", err)
	}
	if _, err := Run(context.Background(), spec, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentScenarioDeterministic(t *testing.T) {
	spec, err := Parse(validExperimentJSON())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.TableText, b.TableText) || !bytes.Equal(a.TableCSV, b.TableCSV) {
		t.Fatal("equal specs produced different result bytes")
	}
	if len(a.TableText) == 0 || len(a.TableCSV) == 0 {
		t.Fatal("empty rendering")
	}
	if a.Manifest.Kind != "experiment" || a.Manifest.Label != "eq2-epi" || a.Manifest.SpecFingerprint == "" {
		t.Fatalf("manifest incomplete: %+v", a.Manifest)
	}
	ma, err := a.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma, mb) {
		t.Fatal("manifests not byte-identical across replays")
	}
}

func TestRunSimulationScenario(t *testing.T) {
	spec, err := Parse(validSimulationJSON())
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	out, err := Run(context.Background(), spec, Options{
		Progress: func(stage, _ string) { stages = append(stages, stage) },
	})
	if err != nil {
		t.Fatal(err)
	}
	text := string(out.TableText)
	if !strings.Contains(text, "S1") || !strings.Contains(text, "adv-MSE") {
		t.Fatalf("unexpected table:\n%s", text)
	}
	if len(stages) == 0 {
		t.Fatal("no progress reported")
	}
	// The same spec replays byte-identically.
	again, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.TableText, again.TableText) {
		t.Fatal("simulation scenario not deterministic")
	}
	// A different seed produces a different result.
	seeded := spec
	sim := *spec.Simulation
	sim.Seed = 7
	seeded.Simulation = &sim
	other, err := Run(context.Background(), seeded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.TableText, other.TableText) {
		t.Fatal("seed change did not change the result")
	}
}

func TestRunSimulationReplicates(t *testing.T) {
	spec, err := Parse([]byte(`{"version":1,"simulation":{
		"topology":{"kind":"line","hops":3},"packets":20,"replicates":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seq.Table.Title, "mean of 3 seeds") {
		t.Fatalf("replicated table not aggregated: %q", seq.Table.Title)
	}
	// Parallel replication is byte-identical to sequential.
	par, err := Run(context.Background(), spec, Options{ReplicateWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.TableText, par.TableText) {
		t.Fatal("parallel replication changed result bytes")
	}
}

func TestRunLinkLossAndARQScenario(t *testing.T) {
	spec, err := Parse([]byte(`{"version":1,"simulation":{
		"topology":{"kind":"line","hops":4},"packets":30,
		"channel":{"loss_p":0.1},"arq":{"max_retries":2}}}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out.TableText), "delivery ratio") {
		t.Fatalf("missing delivery note:\n%s", out.TableText)
	}
}

func TestRunCanceledContext(t *testing.T) {
	spec, err := Parse(validSimulationJSON())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, spec, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCanonicalJSONRoundTrips(t *testing.T) {
	spec, err := Parse(validExperimentJSON())
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v\n%s", err, canon)
	}
	fp1, _ := spec.Fingerprint()
	fp2, _ := reparsed.Fingerprint()
	if fp1 != fp2 {
		t.Fatal("canonical round trip changed the fingerprint")
	}
	if !json.Valid(canon) {
		t.Fatal("canonical form is not valid JSON")
	}
}

// TestRunEngineReuseDifferential runs representative replicated scenarios
// serially and on three replicate workers and requires byte-identical
// renderings. Every run reuses pooled engines, so the parallel run files
// different seeds onto different engines than the serial one: reuse may
// never change output. abl-mix covers custom policies.
func TestRunEngineReuseDifferential(t *testing.T) {
	specs := map[string][]byte{
		"experiment-replicated": []byte(`{"version":1,"experiment":{
			"id":"fig2b","packets":60,"interarrivals":[5],"replicates":3,"seed":2}}`),
		"simulation-replicated": []byte(`{"version":1,"simulation":{
			"topology":{"kind":"line","hops":3},"packets":20,"replicates":3}}`),
		"custom-policy-replicated": []byte(`{"version":1,"experiment":{
			"id":"abl-mix","packets":60,"replicates":3,"seed":2}}`),
	}
	for name, doc := range specs {
		t.Run(name, func(t *testing.T) {
			spec, err := Parse(doc)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(context.Background(), spec, Options{ReplicateWorkers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.TableText, serial.TableText) || !bytes.Equal(out.TableCSV, serial.TableCSV) {
				t.Fatalf("ReplicateWorkers 3 changed result bytes vs the serial run:\n--- parallel ---\n%s\n--- serial ---\n%s", out.TableText, serial.TableText)
			}
		})
	}
}

// TestNodeCountMatchesTopology: the node count Normalize checks failures
// against is the built topology's, whose IDs run contiguously from the
// sink.
func TestNodeCountMatchesTopology(t *testing.T) {
	for _, topo := range []TopologySpec{
		{Kind: "figure1"},
		{Kind: "line", Hops: 7},
		{Kind: "grid", Width: 3, Height: 5},
		{Kind: "random", Nodes: 40, Radius: 4},
	} {
		if err := topo.normalize(); err != nil {
			t.Fatal(err)
		}
		built, _, err := topo.build(1)
		if err != nil {
			t.Fatal(err)
		}
		ids := built.Nodes()
		if n := topo.nodeCount(); n != built.NodeCount() || int(ids[len(ids)-1]) != n-1 {
			t.Errorf("%s: nodeCount %d, built %d nodes up to %v", topo.Kind, n, built.NodeCount(), ids[len(ids)-1])
		}
	}
}

// TestRandomFieldPlacedFromSpecSeed: a random field is placed from the
// spec's seed, so every replicate of the spec runs on the same field, and
// a field that stays disconnected is an error naming the cause.
func TestRandomFieldPlacedFromSpecSeed(t *testing.T) {
	spec := mustParse(t, `{"version":1,"simulation":{"topology":{"kind":"random","nodes":60,"radius":2.5},"packets":20,"seed":3,"replicates":3}}`)
	a, err := Compile(spec.Simulation)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec.Simulation)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Config.Topology.Edges(), b.Config.Topology.Edges()) || !reflect.DeepEqual(a.Sources, b.Sources) {
		t.Fatal("one spec compiled to two fields")
	}
	reseeded := *spec.Simulation
	reseeded.Seed = 4
	c, err := Compile(&reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Config.Topology.Edges(), c.Config.Topology.Edges()) {
		t.Fatal("the spec's seed does not place the field")
	}
	if _, err := Run(context.Background(), spec, Options{}); err != nil {
		t.Fatal(err)
	}
	sparse := mustParse(t, `{"version":1,"simulation":{"topology":{"kind":"random","nodes":50,"radius":0.01}}}`)
	if _, err := Compile(sparse.Simulation); !errors.Is(err, topology.ErrDisconnected) {
		t.Fatalf("sparse field: %v, want topology.ErrDisconnected", err)
	}
}

// TestRunNewSpecParts: rate control and a failure with route repair
// compile into the engine config and run through the service path.
func TestRunNewSpecParts(t *testing.T) {
	spec := mustParse(t, `{"version":1,"simulation":{
		"topology":{"kind":"grid","width":4,"height":4},"capacity":4,"packets":120,
		"rate_control":{"target_loss":0.1},"failures":[{"node":7,"at":150}],"route_repair":true}}`)
	sim, err := Compile(spec.Simulation)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Config
	if c.RateControl == nil || c.RateControl.TargetLoss != 0.1 || c.RateControl.Smoothing != rateSmoothing ||
		len(c.NodeFailures) != 1 || c.NodeFailures[0].Node != 7 || c.NodeFailures[0].At != 150 || !c.RouteRepair {
		t.Fatalf("compiled config %+v", c)
	}
	res, err := network.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reroutes == 0 {
		t.Fatal("the failure rerouted nothing")
	}
	if _, err := Run(context.Background(), spec, Options{}); err != nil {
		t.Fatal(err)
	}
}
