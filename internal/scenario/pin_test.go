package scenario

// Pinned spec identities and simulation tables. Every constant below was
// recorded before simulation specs and rcadsim shared one compiler, and
// none has an update flag: a refactor must pass them unchanged, and a
// deliberate change to a spec's canonical form or to simulated behaviour
// edits the constant and says why.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// pinnedSeedFingerprints holds, for each of parseSeeds in order, the
// fingerprint of the spec it parses to, or "" for a rejected document.
var pinnedSeedFingerprints = []string{
	"766410cb7808cb1342a4ea0a4fc517dd713647011a6f34fe7129c088efbd5f94",
	"9c36c29ebb34a335f73f1fadfd1bf438e2ff04da388daf29eb3331bea5558632",
	"c72e1f437dd8c1f15a5470895a59f39a5aaa2dfae03dfefe9dae829520737036",
	"a110b8eec84e96abe7fbce999eaf37964a241606f9e04da9684704f0c21f0518",
	"",
	"",
	"",
	"",
	"",
	"",
	"",
	"",
	"",
}

// TestPinnedSeedFingerprints: FuzzParse's seed corpus parses to the same
// specs, with the same content addresses, as when it was pinned.
func TestPinnedSeedFingerprints(t *testing.T) {
	if len(pinnedSeedFingerprints) != len(parseSeeds) {
		t.Fatalf("%d pinned fingerprints for %d seeds", len(pinnedSeedFingerprints), len(parseSeeds))
	}
	for i, doc := range parseSeeds {
		got := ""
		if spec, err := Parse([]byte(doc)); err == nil {
			if got, err = spec.Fingerprint(); err != nil {
				t.Fatal(err)
			}
		}
		if got != pinnedSeedFingerprints[i] {
			t.Errorf("seed %d: fingerprint %q, pinned %q\n%s", i, got, pinnedSeedFingerprints[i], doc)
		}
	}
}

// servedShape builds a spec of the shape perfbench's serving workloads
// deal: an RCAD simulation with periodic traffic on one topology, with or
// without lossy links and default ARQ.
func servedShape(topo TopologySpec, packets, replicates int, seed uint64, lossy bool) Spec {
	sim := &SimulationSpec{
		Policy:     "rcad",
		Seed:       seed,
		Replicates: replicates,
		Traffic:    TrafficSpec{Kind: "periodic", Interval: 3},
		Topology:   topo,
		Packets:    packets,
	}
	if lossy {
		sim.Channel = &ChannelSpec{LossP: 0.07}
		sim.ARQ = &ARQSpec{}
	}
	return Spec{Version: CurrentVersion, Simulation: sim}
}

// TestPinnedSpecFingerprints: the README's two example documents and a
// served-shape spec per topology, with and without a lossy channel and
// ARQ, keep their content addresses, whether they arrive as JSON or are
// built in Go as perfbench builds them.
func TestPinnedSpecFingerprints(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"readme-experiment", mustParse(t, `{
  "version": 1,
  "experiment": {"id": "fig2a", "packets": 200, "replicates": 4}
}`), "f2c54897ae71a44cf67abb579e28cbfcf7bde5e0ff8828fd233f2c2e24dec59c"},
		{"readme-simulation", mustParse(t, `{
  "version": 1,
  "simulation": {
    "topology": {"kind": "grid", "width": 6, "height": 6},
    "traffic":  {"kind": "poisson", "rate": 0.25},
    "policy":   "rcad", "capacity": 8,
    "channel":  {"loss_p": 0.1}, "arq": {"max_retries": 3},
    "adversary": "adaptive", "replicates": 4, "seed": 7
  }
}`), "0fa3bb4f08b44b0ab9fc3ed2847042282c96a320a5f45e59bd023ec41cef70e4"},
		{"served-figure1", servedShape(TopologySpec{Kind: "figure1"}, 170, 2, 11, false), "5dc2691d9ce570a9c09349eedc30ae4cfb05da4c68f0b42226b7bfacd5ee2eb2"},
		{"served-figure1-arq", servedShape(TopologySpec{Kind: "figure1"}, 170, 2, 11, true), "0c453657054f0b71095277814f822cf7046723af4af5e4608997f46f8454ce5e"},
		{"served-line", servedShape(TopologySpec{Kind: "line", Hops: 10}, 600, 3, 12, false), "6ff24ed45fd73458c8ada4f81f13e61e0e521efb09f74ad400c746ea232d5abe"},
		{"served-line-arq", servedShape(TopologySpec{Kind: "line", Hops: 10}, 600, 3, 12, true), "6f946db2ab54cb1fd5f96ba4ba63ed0afe8a8ef0177aa3c2e5a7c5c4c5719886"},
		{"served-grid", servedShape(TopologySpec{Kind: "grid", Width: 3, Height: 4}, 1200, 1, 13, false), "4ee40011fbc25bf5e0102e89f27eac78f2813e4ada7cba2f73ea1532d3c910b0"},
		{"served-grid-arq", servedShape(TopologySpec{Kind: "grid", Width: 3, Height: 4}, 1200, 1, 13, true), "4879ff84465d48ed74f072c0fab1170e5eafb5f48efe02e18f490d35e3e9ec55"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			wire, err := json.Marshal(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(wire)
			if err != nil {
				t.Fatal(err)
			}
			viaWire, err := parsed.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want || viaWire != c.want {
				t.Errorf("fingerprint %s (via JSON %s), pinned %s", got, viaWire, c.want)
			}
		})
	}
}

func mustParse(t *testing.T, doc string) Spec {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPinnedSimulationTables: small simulation specs that together cover
// every policy, adversary, victim rule and delay distribution, periodic,
// Poisson and on-off traffic, Bernoulli, burst and ACK loss with ARQ,
// sealing, and single and replicated runs render the same text and CSV
// tables as when they were pinned.
func TestPinnedSimulationTables(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"figure1-rcad-baseline", `{"version":1,"simulation":{"topology":{"kind":"figure1"},"packets":60}}`, "2cf730bb3fddddf25d35b438999f23399ce7fdffd1a7dcc5e54d0ec20ad8f726"},
		{"line-no-delay-poisson-adaptive", `{"version":1,"simulation":{"topology":{"kind":"line","hops":5},
			"policy":"no-delay","traffic":{"kind":"poisson","rate":0.5},"adversary":"adaptive","packets":80}}`, "1dcfd92889c13fbac0f782b4c004d9e87e6669b25210537198699e69e567e63f"},
		{"grid-unlimited-uniform-onoff-path-aware-x3", `{"version":1,"simulation":{"topology":{"kind":"grid","width":3,"height":4},
			"policy":"delay-unlimited","delay":{"dist":"uniform","mean":20},
			"traffic":{"kind":"onoff","rate":1,"on_mean":5,"off_mean":10},
			"adversary":"path-aware","packets":80,"replicates":3}}`, "f86c6e63f63cb10017e6ac0721d4aabd527dd59006b15c39fd321d1e720c4708"},
		{"line-droptail-constant-adaptive-sealed", `{"version":1,"simulation":{"topology":{"kind":"line","hops":6},
			"policy":"delay-droptail","delay":{"dist":"constant","mean":15},"capacity":3,
			"adversary":"adaptive","seal":true,"packets":100}}`, "1b316eb2d87b63abb6f84836a480335c95edca9b7933073e3a972f7d0302269b"},
		{"figure1-rcad-pareto-random-path-aware-x3", `{"version":1,"simulation":{"topology":{"kind":"figure1"},
			"delay":{"dist":"pareto","mean":30,"shape":2.5},"victim":"random",
			"adversary":"path-aware","packets":50,"replicates":3,"seed":4}}`, "7a033991cfeb6a0c0f9ec7d8c5701c6dca10c2754905974ebe468d8f304cc990"},
		{"line-rcad-longest-burst-arq", `{"version":1,"simulation":{"topology":{"kind":"line","hops":4},
			"victim":"longest-remaining","channel":{"loss_p":0.02,"burst":true,"burst_loss_p":0.6},
			"arq":{},"packets":100}}`, "dcbba4d9ee2dc211abae16bde9e2836b91dcd0136a837ba8f183fef5737e365a"},
		{"line-rcad-oldest-ack-loss-adaptive", `{"version":1,"simulation":{"topology":{"kind":"line","hops":5},
			"victim":"oldest","channel":{"ack_loss_p":0.3},"arq":{"max_retries":2},
			"adversary":"adaptive","packets":80,"tau":2}}`, "458f62dd2da949b193ca656011405886995ba925f668c4190f39751aec8b6302"},
		{"grid-rcad-lossy-arq-path-aware-x3", `{"version":1,"simulation":{"topology":{"kind":"grid","width":4,"height":4},
			"capacity":4,"channel":{"loss_p":0.1},"arq":{"timeout":4,"backoff":1.5},
			"adversary":"path-aware","packets":60,"replicates":3,"seed":5}}`, "8f0530dfbde8bc17c353715ad675d3fae3e9b7b3d95f2343e843fbdbffc4bf05"},
		{"line-rcad-long-delay-threshold", `{"version":1,"simulation":{"topology":{"kind":"line","hops":3},
			"delay":{"mean":1000},"traffic":{"interval":1.5},"adversary":"adaptive","threshold":0.2,"packets":150}}`, "b841c2d9265b0a2d0a15ed409401d0355079c241108a77415790db68063c956a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := Run(context.Background(), mustParse(t, c.doc), Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(out.TableText)
			h.Write([]byte{0})
			h.Write(out.TableCSV)
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("table digest %s, pinned %s\n%s", got, c.want, out.TableText)
			}
		})
	}
}
