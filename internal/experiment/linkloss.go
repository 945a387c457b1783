package experiment

import (
	"fmt"

	"tempriv/internal/delay"
	"tempriv/internal/network"
	"tempriv/internal/report"
)

// AblLinkLoss sweeps the per-link frame-loss probability p with link-layer
// ARQ enabled, on the Figure-1 topology under RCAD. The robustness question:
// how much delivery does an unreliable channel cost, how much work does ARQ
// spend recovering it, and does retransmission jitter change what the
// adversary learns about creation times?
func AblLinkLoss(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	sweep := []float64{0, 0.05, 0.1, 0.2}
	const ia = 10.0

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	dist, err := delay.NewExponential(p.MeanDelay)
	if err != nil {
		return nil, err
	}
	type row struct{ ratio, retxPerPkt, dropPerPkt, mse, lat float64 }
	rows := make([]row, len(sweep))
	err = parallelFor(len(sweep), func(i int) error {
		srcs, err := net.periodic(p.Packets, ia)
		if err != nil {
			return err
		}
		return network.RunBorrowed(p.Engines, network.Config{
			Topology:          net.topo,
			Sources:           srcs,
			Policy:            network.PolicyRCAD,
			Delay:             dist,
			Capacity:          p.Capacity,
			TransmissionDelay: p.Tau,
			Seed:              p.Seed,
			Channel:           &network.ChannelConfig{LossP: sweep[i]},
			ARQ:               network.DefaultARQ(),
		}, func(res *network.Result) error {
			s1 := net.sources[0]
			mse, err := scoreFlow(p, res, s1, p.MeanDelay)
			if err != nil {
				return err
			}
			var created uint64
			for _, f := range res.Flows {
				created += f.Created
			}
			rows[i] = row{
				ratio:      res.DeliveryRatio(),
				retxPerPkt: float64(res.Retransmissions) / float64(created),
				dropPerPkt: float64(res.LinkDrops) / float64(created),
				mse:        mse,
				lat:        res.Flows[s1].Latency.Mean,
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "Robustness: link loss vs delivery, ARQ work, and adversary MSE (RCAD, flow S1)",
		RowHeader: "loss p",
		Columns:   []string{"delivery-ratio", "retx/packet", "link-drops/packet", "adversary-MSE", "mean-latency"},
		Notes: append(figureNotes(p),
			fmt.Sprintf("Bernoulli per-link loss, ARQ: %d retries, timeout 3τ, backoff ×2; 1/λ=%g", network.DefaultARQ().MaxRetries, ia),
			"expected: delivery ratio ≈ 1 for p ≤ 0.1 (ARQ absorbs the loss) and MSE stays ≈ flat —",
			"retransmission jitter is per-hop and small next to the RCAD delay, so privacy does not lean on a reliable channel"),
	}
	for i, pl := range sweep {
		t.AddRow(formatSweepLabel(pl), rows[i].ratio, rows[i].retxPerPkt, rows[i].dropPerPkt, rows[i].mse, rows[i].lat)
	}
	return t, nil
}
