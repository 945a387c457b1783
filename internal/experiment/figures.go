package experiment

import (
	"fmt"

	"tempriv/internal/adversary"
	"tempriv/internal/network"
	"tempriv/internal/packet"
	"tempriv/internal/report"
	"tempriv/internal/topology"
)

// figure1Cases are the paper's three §5.3 buffering cases, in column
// order: no artificial delay, exponential delay with unlimited buffers, and
// limited buffers with preemption (RCAD).
var figure1Cases = [...]network.PolicyKind{network.PolicyForward, network.PolicyUnlimited, network.PolicyRCAD}

// figure1Columns names the figure a sweep computes columns for.
// figure1Sweep runs and scores only what that figure reports: every run is
// a pure function of its parameters, policy, 1/λ and seed, so skipping the
// others changes no reported byte.
type figure1Columns int

const (
	fig2aColumns figure1Columns = iota // baseline MSE of cases 1–3
	fig2bColumns                       // mean latency of cases 1–3
	fig3Columns                        // case 3: three adversaries' MSE, preemption rate
)

// figure1Point is the outcome of the buffering cases at one sweep point,
// measured for flow S1.
type figure1Point struct {
	mse, lat                  [len(figure1Cases)]float64 // baseline adversary, mean latency
	mseAdaptive, msePathAware float64                    // against case 3
	preemptRate               float64                    // case 3
}

// figure1Sweep computes one figure's columns at every interarrival in p, in
// parallel.
func figure1Sweep(p Params, cols figure1Columns) ([]figure1Point, error) {
	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	first := 0
	var paths map[packet.NodeID][]packet.NodeID
	if cols == fig3Columns {
		first = len(figure1Cases) - 1
		if paths, err = net.paths(); err != nil {
			return nil, err
		}
	}
	s1 := net.sources[0]
	points := make([]figure1Point, len(p.Interarrivals))
	err = parallelFor(len(p.Interarrivals), func(i int) error {
		pt := &points[i]
		for c := first; c < len(figure1Cases); c++ {
			err := figure1Run(p, net, figure1Cases[c], p.Interarrivals[i], func(res *network.Result) error {
				pt.lat[c] = res.Flows[s1].Latency.Mean
				if cols == fig2bColumns {
					return nil
				}
				meanDelay := p.MeanDelay
				if figure1Cases[c] == network.PolicyForward {
					meanDelay = 0
				}
				var err error
				if pt.mse[c], err = scoreFlow(p, res, s1, meanDelay); err != nil {
					return err
				}
				if cols == fig3Columns {
					return scoreFigure3(p, res, s1, paths, pt)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// scoreFigure3 fills Figure 3's remaining columns from a case-3 run: the
// adaptive adversary, the path-aware extension (which also exploits the
// near-sink flow aggregation the threat model lets it know about) and the
// preemption rate.
func scoreFigure3(p Params, res *network.Result, s1 packet.NodeID, paths map[packet.NodeID][]packet.NodeID, pt *figure1Point) error {
	adaptive, err := adversary.NewAdaptive(p.Tau, p.MeanDelay, p.Capacity, p.Threshold)
	if err != nil {
		return err
	}
	if pt.mseAdaptive, err = flowMSE(res, adaptive, s1); err != nil {
		return err
	}
	pathAware, err := adversary.NewPathAware(p.Tau, p.MeanDelay, p.Capacity, p.Threshold, paths)
	if err != nil {
		return err
	}
	if pt.msePathAware, err = flowMSE(res, pathAware, s1); err != nil {
		return err
	}
	var preempts, arrivals uint64
	for _, ns := range res.Nodes {
		preempts += ns.Preemptions
		arrivals += ns.Arrivals
	}
	if arrivals > 0 {
		pt.preemptRate = float64(preempts) / float64(arrivals)
	}
	return nil
}

func figureNotes(p Params) []string {
	return []string{
		fmt.Sprintf("topology: Figure 1 (flows S1..S4, hop counts 15/22/9/11, %d shared trunk hops)", topology.Figure1TrunkLen),
		fmt.Sprintf("params: %d packets/source, 1/µ=%g, k=%d, τ=%g, seed=%d", p.Packets, p.MeanDelay, p.Capacity, p.Tau, p.Seed),
		"reported flow: S1 (15 hops), as in the paper",
	}
}

// Fig2a reproduces Figure 2(a): the baseline adversary's mean square error
// against the three buffering cases, swept over the packet interarrival
// time 1/λ.
func Fig2a(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	points, err := figure1Sweep(p, fig2aColumns)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:     "Figure 2(a): adversary MSE vs packet interarrival time (1/λ)",
		RowHeader: "1/λ",
		Columns:   []string{"NoDelay", "Delay&UnlimitedBuffers", "Delay&LimitedBuffers(RCAD)"},
		Notes: append(figureNotes(p),
			"expected shape: NoDelay ≈ 0; Unlimited small (≈ h/µ² ≈ 1.35e4); RCAD large at small 1/λ, decaying toward Unlimited"),
	}
	for i, ia := range p.Interarrivals {
		t.AddRow(formatSweepLabel(ia), points[i].mse[0], points[i].mse[1], points[i].mse[2])
	}
	return t, nil
}

// Fig2b reproduces Figure 2(b): average end-to-end delivery latency for the
// same three cases.
func Fig2b(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	points, err := figure1Sweep(p, fig2bColumns)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:     "Figure 2(b): average delivery latency vs packet interarrival time (1/λ)",
		RowHeader: "1/λ",
		Columns:   []string{"NoDelay", "Delay&UnlimitedBuffers", "Delay&LimitedBuffers(RCAD)"},
		Notes: append(figureNotes(p),
			"expected shape: NoDelay = h·τ = 15; Unlimited ≈ h(τ+1/µ) ≈ 465; RCAD between, ≈2.5x below Unlimited at 1/λ=2"),
	}
	for i, ia := range p.Interarrivals {
		t.AddRow(formatSweepLabel(ia), points[i].lat[0], points[i].lat[1], points[i].lat[2])
	}
	return t, nil
}

// Fig3 reproduces Figure 3: baseline vs adaptive adversary MSE against the
// RCAD network, swept over 1/λ.
func Fig3(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	points, err := figure1Sweep(p, fig3Columns)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:     "Figure 3: estimation MSE for the two adversary models (RCAD network)",
		RowHeader: "1/λ",
		Columns:   []string{"BaselineAdversary", "AdaptiveAdversary", "PathAwareAdversary", "preemption-rate"},
		Notes: append(figureNotes(p),
			fmt.Sprintf("adaptive adversary: Erlang-loss threshold %g, per-hop delay min(1/µ, k/λ_flow) in the preemption regime", p.Threshold),
			"path-aware adversary (extension): per-node delay min(1/µ, k/λ_node) using routing knowledge",
			"expected shape: adaptive ≪ baseline at small 1/λ (but not zero), converging as 1/λ grows"),
	}
	for i, ia := range p.Interarrivals {
		t.AddRow(formatSweepLabel(ia), points[i].mse[2], points[i].mseAdaptive, points[i].msePathAware, points[i].preemptRate)
	}
	return t, nil
}
