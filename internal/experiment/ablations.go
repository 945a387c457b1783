package experiment

import (
	"fmt"
	"math"

	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/network"
	"tempriv/internal/packet"
	"tempriv/internal/report"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

// AblVictim compares RCAD victim-selection rules. The paper picks the packet
// with the shortest remaining delay so "the resulting delay times for that
// node are the closest to the original distribution" (§5); the ablation
// quantifies what the alternatives cost.
func AblVictim(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	selectors := []buffer.VictimSelector{
		buffer.ShortestRemaining{},
		buffer.LongestRemaining{},
		buffer.Oldest{},
		buffer.Random{},
	}
	sweep := []float64{2, 5, 10, 20}

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	dist, err := delay.NewExponential(p.MeanDelay)
	if err != nil {
		return nil, err
	}
	s1 := net.sources[0]
	type cell struct{ mse, lat float64 }
	grid := make([][]cell, len(sweep))
	for i := range grid {
		grid[i] = make([]cell, len(selectors))
	}
	err = parallelFor(len(sweep)*len(selectors), func(idx int) error {
		i, j := idx/len(selectors), idx%len(selectors)
		srcs, err := net.periodic(p.Packets, sweep[i])
		if err != nil {
			return err
		}
		return network.RunBorrowed(p.Engines, network.Config{
			Topology:          net.topo,
			Sources:           srcs,
			Policy:            network.PolicyRCAD,
			Delay:             dist,
			Capacity:          p.Capacity,
			Victim:            selectors[j],
			TransmissionDelay: p.Tau,
			Seed:              p.Seed,
		}, func(res *network.Result) error {
			mse, err := scoreFlow(p, res, s1, p.MeanDelay)
			if err != nil {
				return err
			}
			grid[i][j] = cell{mse: mse, lat: res.Flows[s1].Latency.Mean}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "Ablation: RCAD victim-selection rule (flow S1)",
		RowHeader: "1/λ",
		Columns:   []string{},
		Notes: append(figureNotes(p),
			"mse:* columns are baseline-adversary MSE; lat:* columns are mean delivery latency",
			"paper's rule is shortest-remaining: realised delays stay closest to the intended distribution"),
	}
	for _, s := range selectors {
		t.Columns = append(t.Columns, "mse:"+s.Name())
	}
	for _, s := range selectors {
		t.Columns = append(t.Columns, "lat:"+s.Name())
	}
	for i, ia := range sweep {
		values := make([]float64, 0, 2*len(selectors))
		for j := range selectors {
			values = append(values, grid[i][j].mse)
		}
		for j := range selectors {
			values = append(values, grid[i][j].lat)
		}
		t.AddRow(formatSweepLabel(ia), values...)
	}
	return t, nil
}

// AblDist compares delay distributions at equal mean (§3.2's max-entropy
// argument): the exponential should extract the most adversary error per
// unit of added latency.
func AblDist(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	names := []string{"none", "constant", "uniform", "pareto", "exponential"}
	const ia = 10.0

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	s1 := net.sources[0]
	type row struct{ entropy, mse, lat float64 }
	rows := make([]row, len(names))
	err = parallelFor(len(names), func(i int) error {
		name := names[i]
		dist, err := delay.ByName(name, p.MeanDelay)
		if err != nil {
			return err
		}
		entropy := math.NaN()
		if h, ok := dist.Entropy(); ok {
			entropy = h
		}

		srcs, err := net.periodic(p.Packets, ia)
		if err != nil {
			return err
		}
		policy := network.PolicyUnlimited
		var cfgDist delay.Distribution = dist
		if name == "none" {
			policy = network.PolicyForward
			cfgDist = nil
		}
		return network.RunBorrowed(p.Engines, network.Config{
			Topology:          net.topo,
			Sources:           srcs,
			Policy:            policy,
			Delay:             cfgDist,
			TransmissionDelay: p.Tau,
			Seed:              p.Seed,
		}, func(res *network.Result) error {
			mse, err := scoreFlow(p, res, s1, dist.Mean())
			if err != nil {
				return err
			}
			rows[i] = row{entropy: entropy, mse: mse, lat: res.Flows[s1].Latency.Mean}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "Ablation: delay distribution at equal mean (unlimited buffers, flow S1)",
		RowHeader: "distribution",
		Columns:   []string{"per-hop-entropy(nats)", "adversary-MSE", "mean-latency"},
		Notes: []string{
			fmt.Sprintf("all distributions share mean %g; 1/λ=%g; adversary knows each distribution's mean", p.MeanDelay, ia),
			"expected: MSE ranks exponential > pareto > uniform > constant ≈ none (max-entropy argument, §3.2)",
			"latency column is ≈ equal across delaying rows: privacy is bought per unit latency, not with more latency",
		},
	}
	for i, name := range names {
		t.AddRow(name, rows[i].entropy, rows[i].mse, rows[i].lat)
	}
	return t, nil
}

// AblBuffer sweeps the buffer size k at the paper's highest load (1/λ = 2),
// exposing the §4/§5 tradeoff: more slots mean fewer preemptions and more
// privacy, at the cost of memory and latency.
func AblBuffer(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	capacities := []int{2, 5, 10, 20, 50, 100}
	const ia = 2.0

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	s1 := net.sources[0]
	type row struct{ mse, lat, preempt, maxTrunkOcc float64 }
	rows := make([]row, len(capacities))
	err = parallelFor(len(capacities), func(i int) error {
		q := p
		q.Capacity = capacities[i]
		return figure1Run(q, net, network.PolicyRCAD, ia, func(res *network.Result) error {
			mse, err := scoreFlow(q, res, s1, q.MeanDelay)
			if err != nil {
				return err
			}
			var preempts, arrivals uint64
			maxOcc := 0.0
			for _, id := range sortedNodeIDs(res.Nodes) {
				ns := res.Nodes[id]
				preempts += ns.Preemptions
				arrivals += ns.Arrivals
				if ns.MaxOccupancy > maxOcc {
					maxOcc = ns.MaxOccupancy
				}
			}
			pr := 0.0
			if arrivals > 0 {
				pr = float64(preempts) / float64(arrivals)
			}
			rows[i] = row{mse: mse, lat: res.Flows[s1].Latency.Mean, preempt: pr, maxTrunkOcc: maxOcc}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "Ablation: buffer size k under peak load (1/λ = 2, RCAD, flow S1)",
		RowHeader: "k",
		Columns:   []string{"adversary-MSE", "mean-latency", "preemption-rate", "peak-occupancy"},
		Notes: append(figureNotes(p),
			"expected: growing k lowers the preemption rate toward 0 and pushes latency toward the unlimited case;",
			"MSE is highest at small k (preemptions defeat the adversary's delay model) — the privacy/buffer conflict"),
	}
	for i, k := range capacities {
		t.AddRow(fmt.Sprintf("%d", k), rows[i].mse, rows[i].lat, rows[i].preempt, rows[i].maxTrunkOcc)
	}
	return t, nil
}

// AblMu sweeps the mean per-hop delay 1/µ with unlimited buffers, exhibiting
// the central conflict of §3.2/§4: privacy (MSE) and buffer occupancy both
// grow with 1/µ.
func AblMu(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	means := []float64{5, 10, 20, 30, 60, 120}
	const ia = 10.0
	lambdaTot := 4.0 / ia // four flows share the trunk

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	s1 := net.sources[0]
	type row struct{ mse, lat, occ, rho float64 }
	rows := make([]row, len(means))
	err = parallelFor(len(means), func(i int) error {
		q := p
		q.MeanDelay = means[i]
		return figure1Run(q, net, network.PolicyUnlimited, ia, func(res *network.Result) error {
			mse, err := scoreFlow(q, res, s1, q.MeanDelay)
			if err != nil {
				return err
			}
			// Node 1 is the trunk hop adjacent to the sink (MergeTree
			// construction): the most loaded buffer in the network.
			trunk, ok := res.Nodes[packet.NodeID(1)]
			if !ok {
				return fmt.Errorf("experiment: trunk node stats missing")
			}
			rows[i] = row{
				mse: mse,
				lat: res.Flows[s1].Latency.Mean,
				occ: trunk.AvgOccupancy,
				rho: lambdaTot * means[i],
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "Ablation: privacy vs buffer occupancy as the mean delay 1/µ grows (unlimited buffers)",
		RowHeader: "1/µ",
		Columns:   []string{"adversary-MSE", "mean-latency", "trunk-avg-occupancy", "theory ρ=λtot/µ"},
		Notes: []string{
			fmt.Sprintf("Figure-1 topology, 1/λ=%g per source (λtot=%g at the trunk), flow S1, seed=%d", ia, lambdaTot, p.Seed),
			"expected: MSE grows ≈ h/µ² while trunk occupancy grows ≈ λtot/µ — the conflicting objectives of §4",
		},
	}
	for i, m := range means {
		t.AddRow(formatSweepLabel(m), rows[i].mse, rows[i].lat, rows[i].occ, rows[i].rho)
	}
	return t, nil
}

// AblDecomp compares ways of decomposing the per-path delay budget across
// hops (§3.3): a uniform split, a sink-light split (more delay far from the
// sink), and a sink-heavy split. Total mean delay is held constant.
func AblDecomp(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	const hops = 15
	const ia = 10.0
	budget := p.MeanDelay * hops // same total mean delay in every scheme

	// weightFor returns each node's share weight; node IDs on the line are
	// 1 (adjacent to sink) … hops (the source).
	schemes := []struct {
		name   string
		weight func(id int) float64
	}{
		{name: "uniform", weight: func(int) float64 { return 1 }},
		{name: "sink-light", weight: func(id int) float64 { return float64(id) }},
		{name: "sink-heavy", weight: func(id int) float64 { return float64(hops + 1 - id) }},
	}

	type row struct{ mse, lat, nearSinkOcc, predictedMSE float64 }
	rows := make([]row, len(schemes))
	err = parallelFor(len(schemes), func(i int) error {
		sc := schemes[i]
		total := 0.0
		for id := 1; id <= hops; id++ {
			total += sc.weight(id)
		}
		perNode := make(map[packet.NodeID]delay.Distribution, hops)
		predicted := 0.0
		for id := 1; id <= hops; id++ {
			mean := budget * sc.weight(id) / total
			d, err := delay.NewExponential(mean)
			if err != nil {
				return err
			}
			perNode[packet.NodeID(id)] = d
			predicted += mean * mean // Var of exponential = mean²
		}

		topo, err := topology.Line(hops)
		if err != nil {
			return err
		}
		proc, err := traffic.NewPeriodic(ia)
		if err != nil {
			return err
		}
		base, err := delay.NewExponential(p.MeanDelay)
		if err != nil {
			return err
		}
		return network.RunBorrowed(p.Engines, network.Config{
			Topology:          topo,
			Sources:           []network.Source{{Node: packet.NodeID(hops), Process: proc, Count: p.Packets}},
			Policy:            network.PolicyUnlimited,
			Delay:             base,
			PerNodeDelay:      perNode,
			TransmissionDelay: p.Tau,
			Seed:              p.Seed,
		}, func(res *network.Result) error {
			mse, err := scoreFlow(p, res, packet.NodeID(hops), budget/hops)
			if err != nil {
				return err
			}
			near, ok := res.Nodes[packet.NodeID(1)]
			if !ok {
				return fmt.Errorf("experiment: near-sink node stats missing")
			}
			rows[i] = row{
				mse:          mse,
				lat:          res.Flows[packet.NodeID(hops)].Latency.Mean,
				nearSinkOcc:  near.AvgOccupancy,
				predictedMSE: predicted,
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:     "§3.3: decomposing the delay budget across the routing path (line, 15 hops)",
		RowHeader: "scheme",
		Columns:   []string{"adversary-MSE", "mean-latency", "near-sink-avg-occupancy", "predicted MSE Σmᵢ²"},
		Notes: []string{
			fmt.Sprintf("total mean delay fixed at %g (= 15 × %g); 1/λ=%g; unlimited buffers; seed=%d", budget, p.MeanDelay, ia, p.Seed),
			"sink-light pushes delay away from the sink: lower near-sink occupancy AND higher MSE at equal latency —",
			"the §3.3 observation that decomposition can favour nodes far from the sink",
		},
	}
	for i, sc := range schemes {
		t.AddRow(sc.name, rows[i].mse, rows[i].lat, rows[i].nearSinkOcc, rows[i].predictedMSE)
	}
	return t, nil
}
