package network

// Engine goldens: fixed configs covering the engine paths that no committed
// results/ table runs — rate control, node failures with and without route
// repair, sealing, ACK loss, burst loss, drop-tail on Figure 1 and the
// sampler's share of Events. Each run's result, trace and sample series
// hash to a digest recorded when the test was written. The reuse tests
// compare two paths of one build, so they cannot see a change that shifts
// both; these digests can.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
	"tempriv/internal/trace"
)

// engineGolden is one golden config. build returns a fresh config; fired,
// when set, reports whether the run exercised the path the config is in
// the table for; want is the hex SHA-256 of the run's goldenDigest. config
// is the fingerprint the engine gave the config when the digests were
// recorded, which every digest hashes (see goldenManifest).
type engineGolden struct {
	name   string
	config string
	build  func(t *testing.T) Config
	fired  func(t *testing.T, res *Result) bool
	want   string
}

// goldenGrid is a 4×4 grid sourcing from its far corner 15, whose tree
// path 15-11-7-3-2-1 loses node 7 at t = 150 while packets are buffered
// there; the grid leaves a detour for route repair.
func goldenGrid(t *testing.T, policy PolicyKind, count int) Config {
	cfg := gridConfig(t, 4, 4, policy, 4, count)
	cfg.Capacity = 4
	cfg.NodeFailures = []NodeFailure{{Node: topology.GridID(4, 3, 1), At: 150}}
	return cfg
}

// preempted reports whether any buffer preempted a packet.
func preempted(_ *testing.T, res *Result) bool {
	for _, ns := range res.Nodes {
		if ns.Preemptions > 0 {
			return true
		}
	}
	return false
}

// dropped reports whether any buffer dropped a packet.
func dropped(_ *testing.T, res *Result) bool {
	for _, ns := range res.Nodes {
		if ns.Drops > 0 {
			return true
		}
	}
	return false
}

var engineGoldens = []engineGolden{
	{
		name:   "rcad-rate-control-figure1",
		config: "0ae6e050ee7066e7e58d60bd0425a5c5e0225ce48903c47cf58357b8212c6599",
		build: func(t *testing.T) Config {
			cfg := figure1Config(t, PolicyRCAD, 150)
			cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
			return cfg
		},
		want: "b8a29e6f5d1d0c129f99ed9f188f21c13489c0fc95b1c55a7101abdbd05b6555",
	},
	{
		name:   "rcad-rate-control-line",
		config: "08761c85cefba99f1473eea613db0b0fe52ee067a7af0cedc5d3d6eb1888fbe7",
		build: func(t *testing.T) Config {
			cfg := lineConfig(t, 4, PolicyRCAD, 2, 300)
			cfg.Delay = mustDist(delay.NewExponential(1000))
			cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
			return cfg
		},
		fired: preempted,
		want:  "cd19aefbc01c493a56c4e6acb123870d225109faf2c1c45f5440aea1f3c40474",
	},
	{
		name:   "rcad-grid-failure-static",
		config: "3dc0d050cb9729de293e9f231094a37b9fae844df308d0863f279bf78c77c9ce",
		build: func(t *testing.T) Config {
			return goldenGrid(t, PolicyRCAD, 120)
		},
		fired: func(_ *testing.T, res *Result) bool { return res.LostToFailures > 0 },
		want:  "7699da1d47036dd205fe276f72eb34978cf558f5714c332ae8bee8ae65977da9",
	},
	{
		name:   "rcad-grid-failure-repair",
		config: "fae840e96d11dd84995c2b1d8b00d028e8975663eeb5e6c4fdce76999110f165",
		build: func(t *testing.T) Config {
			cfg := goldenGrid(t, PolicyRCAD, 120)
			cfg.RouteRepair = true
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool { return res.Reroutes > 0 },
		want:  "8f38144fb04a194730dcbf19deb3284bac3467fd15ce45ff0d4f37d43e8d625d",
	},
	{
		name:   "unlimited-grid-failure-repair",
		config: "1f0fd9c06c6d4de8d7205e556de1a1e6f5a5cc5dd75437ef5a03eec5d0057ff3",
		build: func(t *testing.T) Config {
			cfg := goldenGrid(t, PolicyUnlimited, 120)
			cfg.RouteRepair = true
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool { return res.Reroutes > 0 },
		want:  "066d7be89d41754048ac8a7f40e553548e2436d0924e01cec0f2976a737c7674",
	},
	{
		name:   "rcad-rate-control-failure-repair-arq",
		config: "c590f425d22c7ed283dd95f0a27702e3e5d034c2fa28fa032cc8bd501bc0c08d",
		build: func(t *testing.T) Config {
			cfg := goldenGrid(t, PolicyRCAD, 120)
			cfg.RouteRepair = true
			cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
			cfg.Channel = &ChannelConfig{LossP: 0.1, AckLossP: 0.1}
			cfg.ARQ = DefaultARQ()
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool {
			return res.Reroutes > 0 && res.Retransmissions > 0 && res.DuplicatesSuppressed > 0
		},
		want: "05920fd7206dfbaba93316a746bdad75111a700b8e7608e40efebb712d062bc6",
	},
	{
		name:   "rcad-sealed-figure1",
		config: "aa1bcdd1a7fa29ec404251697fc318360acf68025d45c7e71cd27a34e5f30ebb",
		build: func(t *testing.T) Config {
			cfg := figure1Config(t, PolicyRCAD, 60)
			cfg.Seal = true
			return cfg
		},
		want: "ff20635e7df98336281f51b70bb53f200465e7371d5b719ff0822cdedc56e34a",
	},
	{
		name:   "rcad-ack-loss-line",
		config: "341fd19aaa107118f5d0b46e3471fa194b7bee671188ce74a11fcc2dc3d32808",
		build: func(t *testing.T) Config {
			cfg := lineConfig(t, 5, PolicyRCAD, 2, 200)
			cfg.Channel = &ChannelConfig{AckLossP: 0.3}
			cfg.ARQ = DefaultARQ()
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool { return res.DuplicatesSuppressed > 0 },
		want:  "d9a30569e3f2cb2dff2093f2f6de267d49f3f87107c6ecddb419b9e34cacc90e",
	},
	{
		name:   "rcad-burst-loss-line",
		config: "8a67819dd93b8891201d83ebadd0079f024d971ff8cc5f0e30f3669e5a451ae9",
		build: func(t *testing.T) Config {
			cfg := lineConfig(t, 5, PolicyRCAD, 2, 200)
			cfg.Channel = &ChannelConfig{LossP: 0.02, Burst: true, BurstLossP: 0.6}
			cfg.ARQ = DefaultARQ()
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool { return res.Retransmissions > 0 },
		want:  "d336295e5b82bb6386183a4eb95c378884695e6a86578dd8e9ed8b21a64101fe",
	},
	{
		name:   "droptail-figure1",
		config: "1b7bbd6eebe6534709a49423d3077e70f407024651b4af1293bbbf59966e5c31",
		build: func(t *testing.T) Config {
			return figure1Config(t, PolicyDropTail, 150)
		},
		fired: dropped,
		want:  "d6810be33c23ae0c4c63f0edd304e8a2372946ebd23d6aaced756deda3397b3e",
	},
	{
		name:   "rcad-random-victim-pareto",
		config: "5bfd7ef97b70187f1f8757e7d8b64460e4191e3eb4e4f5a5bd810c2e869e6ef0",
		build: func(t *testing.T) Config {
			cfg := figure1Config(t, PolicyRCAD, 100)
			cfg.Delay = mustDist(delay.NewPareto(30, 2.5))
			cfg.Victim = buffer.Random{}
			return cfg
		},
		fired: preempted,
		want:  "a9d31d7f7c8a1c790bb9c0c611ad3b7ca00955a58bbf1cac2ae895f71cc689f0",
	},
	{
		name:   "rcad-sampled-figure1",
		config: "5f8c2ecb3cff090a42f87e3969157c43b6c6e13381c3cf13698719d21aeb17fe",
		build: func(t *testing.T) Config {
			cfg := figure1Config(t, PolicyRCAD, 100)
			cfg.Telemetry = &telemetry.Config{
				Registry:    telemetry.NewRegistry(),
				SampleEvery: 7,
				Emitter:     &telemetry.Memory{},
			}
			return cfg
		},
		// The sampler's probes are scheduler events of their own, so the
		// sampled run counts more Events than the same run unobserved.
		fired: func(t *testing.T, res *Result) bool {
			bare, err := Run(figure1Config(t, PolicyRCAD, 100))
			if err != nil {
				t.Fatal(err)
			}
			return res.Events > bare.Events && len(res.Deliveries) == len(bare.Deliveries)
		},
		want: "36487303eb6895acad8db71205b6ecf2cf17e623db84ea72a47a6aab9294e74a",
	},
}

// goldenManifest is the provenance record the engine attached to every
// Result when the digests were recorded, as they hashed it: the config
// fingerprint, the seed, duration, events and deliveries, and zero for the
// Go version, wall-clock and heap fields.
type goldenManifest struct {
	ConfigFingerprint string  `json:"config_fingerprint"`
	Seed              int64   `json:"seed"`
	GoVersion         string  `json:"go_version"`
	SimDuration       float64 `json:"sim_duration"`
	Events            int     `json:"events"`
	Deliveries        int     `json:"deliveries"`
	WallSeconds       float64 `json:"wall_seconds"`
	EventsPerSec      float64 `json:"events_per_sec"`
	PeakHeapBytes     uint64  `json:"peak_heap_bytes"`
}

// goldenDigest runs cfg with a trace attached and hashes everything
// deterministic it produced: the result (deliveries, flow and node stats
// and every counter) with the goldenManifest of config as its last field,
// the trace event log and, when the config samples, the sample series less
// its heap readings. It returns the result too.
func goldenDigest(t *testing.T, config string, cfg Config) (string, *Result) {
	t.Helper()
	events := &trace.Memory{}
	cfg.Tracer = events
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := json.Marshal(goldenManifest{
		ConfigFingerprint: config,
		Seed:              int64(cfg.Seed),
		SimDuration:       res.Duration,
		Events:            int(res.Events),
		Deliveries:        len(res.Deliveries),
	})
	if err != nil {
		t.Fatal(err)
	}
	sig := resultSignature(t, res)
	h := sha256.New()
	h.Write([]byte(sig[:len(sig)-1]))
	h.Write([]byte(`,"Manifest":`))
	h.Write(m)
	h.Write([]byte(`}`))
	enc := json.NewEncoder(h)
	if err := enc.Encode(events.Events()); err != nil {
		t.Fatal(err)
	}
	if cfg.Telemetry != nil {
		samples := cfg.Telemetry.Emitter.(*telemetry.Memory).Samples()
		for i := range samples {
			samples[i].HeapAllocBytes = 0
		}
		if err := enc.Encode(samples); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), res
}

// TestEngineGoldens runs every golden config, requires it to exercise its
// path, and compares its digest with the recorded one. A deliberate change
// to simulated behaviour must update the digests above and say why; a
// refactor must leave them alone.
func TestEngineGoldens(t *testing.T) {
	for _, g := range engineGoldens {
		t.Run(g.name, func(t *testing.T) {
			got, res := goldenDigest(t, g.config, g.build(t))
			if g.fired != nil && !g.fired(t, res) {
				t.Error("the run did not exercise the path this golden covers")
			}
			if got != g.want {
				t.Errorf("digest %s, recorded %s", got, g.want)
			}
		})
	}
}
