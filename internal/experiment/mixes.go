package experiment

import (
	"fmt"

	"tempriv/internal/adversary"
	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/mix"
	"tempriv/internal/network"
	"tempriv/internal/report"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
)

// AblMix compares RCAD against the anonymity-network mechanisms from the
// paper's related work (§6): Kesdogan's SG-mix (independent exponential
// delay per message — Danezis proved it optimal for a given mean delay at a
// single node) and Chaum-style batching mixes (threshold pool mix, timed
// mix). Privacy is scored with the genie constant-offset bound
// (adversary.BestConstantOffsetMSE), which is well-defined for every scheme
// regardless of its delay distribution.
//
// The experiment quantifies the paper's §6 observation that mix techniques
// "do not extend to networks of queues": on a multi-hop path, batch rules
// either stall low-rate segments (latency explodes) or release with little
// temporal noise (privacy collapses), while per-packet random delays — the
// SG-mix at one node, RCAD network-wide — buy variance at every hop for a
// bounded buffer.
func AblMix(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	const ia = 5.0

	type scheme struct {
		name   string
		policy network.PolicyKind
		delay  delay.Distribution
		custom func(*sim.Scheduler, buffer.Forward, *rng.Source) (buffer.Policy, error)
	}
	expDist, err := delay.NewExponential(p.MeanDelay)
	if err != nil {
		return nil, err
	}
	schemes := []scheme{
		{name: "no-delay", policy: network.PolicyForward},
		{name: "rcad(k=10)", policy: network.PolicyRCAD, delay: expDist},
		{name: "sg-mix", policy: network.PolicyUnlimited, delay: expDist},
		{
			name:   "threshold-mix(10)",
			policy: network.PolicyCustom,
			custom: func(s *sim.Scheduler, f buffer.Forward, src *rng.Source) (buffer.Policy, error) {
				return mix.NewThresholdMix(s, f, 10, 0, src)
			},
		},
		{
			name:   "pool-mix(8+2)",
			policy: network.PolicyCustom,
			custom: func(s *sim.Scheduler, f buffer.Forward, src *rng.Source) (buffer.Policy, error) {
				return mix.NewThresholdMix(s, f, 8, 2, src)
			},
		},
		{
			name:   "timed-mix(30)",
			policy: network.PolicyCustom,
			custom: func(s *sim.Scheduler, f buffer.Forward, src *rng.Source) (buffer.Policy, error) {
				return mix.NewTimedMix(s, f, p.MeanDelay, src)
			},
		},
	}

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	s1 := net.sources[0]
	type row struct{ genieMSE, lat, peakOcc, delivered float64 }
	rows := make([]row, len(schemes))
	err = parallelFor(len(schemes), func(i int) error {
		sc := schemes[i]
		srcs, err := net.periodic(p.Packets, ia)
		if err != nil {
			return err
		}
		err = network.RunBorrowed(p.Engines, network.Config{
			Topology:          net.topo,
			Sources:           srcs,
			Policy:            sc.policy,
			Delay:             sc.delay,
			Capacity:          p.Capacity,
			CustomPolicy:      sc.custom,
			TransmissionDelay: p.Tau,
			Seed:              p.Seed,
		}, func(res *network.Result) error {
			genie, err := adversary.BestConstantOffsetMSE(res.Observations(), res.Truths())
			if err != nil {
				return err
			}
			peak := 0.0
			for _, ns := range res.Nodes {
				if ns.MaxOccupancy > peak {
					peak = ns.MaxOccupancy
				}
			}
			rows[i] = row{
				genieMSE:  genie[s1],
				lat:       res.Flows[s1].Latency.Mean,
				peakOcc:   peak,
				delivered: float64(res.Flows[s1].Delivered),
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("scheme %s: %w", sc.name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "§6 comparison: RCAD vs mix-network mechanisms (flow S1)",
		RowHeader: "scheme",
		Columns:   []string{"genie-MSE(floor)", "mean-latency", "peak-occupancy", "delivered"},
		Notes: []string{
			fmt.Sprintf("Figure-1 topology, 1/λ=%g per source, mean delay budget %g, %d packets/source, seed=%d", ia, p.MeanDelay, p.Packets, p.Seed),
			"genie-MSE is the best-constant-offset bound: the MSE of an adversary that knows each flow's exact mean delay (no parametric adversary beats it)",
			"expected: sg-mix buys the most variance per unit latency at a single-node view, but needs unbounded buffers;",
			"batch mixes pay multi-hop latency far above their variance (they 'do not extend to networks of queues', §6);",
			"rcad holds a 10-slot buffer everywhere and keeps most of the sg-mix privacy at lower latency",
			"delivered < packets means messages stranded in mix pools when traffic ends — a further batch-mix cost",
		},
	}
	for i, sc := range schemes {
		t.AddRow(sc.name, rows[i].genieMSE, rows[i].lat, rows[i].peakOcc, rows[i].delivered)
	}
	return t, nil
}
