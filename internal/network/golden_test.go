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
// the table for; want is the hex SHA-256 of the run's goldenDigest.
type engineGolden struct {
	name  string
	build func(t *testing.T) Config
	fired func(t *testing.T, res *Result) bool
	want  string
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
		name: "rcad-rate-control-figure1",
		build: func(t *testing.T) Config {
			cfg := figure1Config(t, PolicyRCAD, 150)
			cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
			return cfg
		},
		want: "b8a29e6f5d1d0c129f99ed9f188f21c13489c0fc95b1c55a7101abdbd05b6555",
	},
	{
		name: "rcad-rate-control-line",
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
		name: "rcad-grid-failure-static",
		build: func(t *testing.T) Config {
			return goldenGrid(t, PolicyRCAD, 120)
		},
		fired: func(_ *testing.T, res *Result) bool { return res.LostToFailures > 0 },
		want:  "7699da1d47036dd205fe276f72eb34978cf558f5714c332ae8bee8ae65977da9",
	},
	{
		name: "rcad-grid-failure-repair",
		build: func(t *testing.T) Config {
			cfg := goldenGrid(t, PolicyRCAD, 120)
			cfg.RouteRepair = true
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool { return res.Reroutes > 0 },
		want:  "8f38144fb04a194730dcbf19deb3284bac3467fd15ce45ff0d4f37d43e8d625d",
	},
	{
		name: "unlimited-grid-failure-repair",
		build: func(t *testing.T) Config {
			cfg := goldenGrid(t, PolicyUnlimited, 120)
			cfg.RouteRepair = true
			return cfg
		},
		fired: func(_ *testing.T, res *Result) bool { return res.Reroutes > 0 },
		want:  "066d7be89d41754048ac8a7f40e553548e2436d0924e01cec0f2976a737c7674",
	},
	{
		name: "rcad-rate-control-failure-repair-arq",
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
		name: "rcad-sealed-figure1",
		build: func(t *testing.T) Config {
			cfg := figure1Config(t, PolicyRCAD, 60)
			cfg.Seal = true
			return cfg
		},
		want: "ff20635e7df98336281f51b70bb53f200465e7371d5b719ff0822cdedc56e34a",
	},
	{
		name: "rcad-ack-loss-line",
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
		name: "rcad-burst-loss-line",
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
		name: "droptail-figure1",
		build: func(t *testing.T) Config {
			return figure1Config(t, PolicyDropTail, 150)
		},
		fired: dropped,
		want:  "d6810be33c23ae0c4c63f0edd304e8a2372946ebd23d6aaced756deda3397b3e",
	},
	{
		name: "rcad-random-victim-pareto",
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
		name: "rcad-sampled-figure1",
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

// goldenDigest runs cfg with a trace attached and hashes everything
// deterministic it produced: the result (deliveries, flow and node stats,
// every counter, and the manifest less its wall-clock, heap and Go-version
// fields), the trace event log and, when the config samples, the sample
// series less its heap readings. It returns the result too.
func goldenDigest(t *testing.T, cfg Config) (string, *Result) {
	t.Helper()
	events := &trace.Memory{}
	cfg.Tracer = events
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := *res.Manifest
	m.GoVersion = ""
	stripped := *res
	stripped.Manifest = &m
	h := sha256.New()
	h.Write([]byte(resultSignature(t, &stripped)))
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
			got, res := goldenDigest(t, g.build(t))
			if g.fired != nil && !g.fired(t, res) {
				t.Error("the run did not exercise the path this golden covers")
			}
			if got != g.want {
				t.Errorf("digest %s, recorded %s", got, g.want)
			}
		})
	}
}
