package experiment

import (
	"math"
	"testing"

	"tempriv/internal/adversary"
	"tempriv/internal/network"
	"tempriv/internal/packet"
)

// allColumnsSweep is the figure sweep before it split by figure: every
// buffering case at every point, each scored by the baseline adversary and
// case 3 also by the adaptive and path-aware ones, all through the slice
// scorers, on fresh engines.
func allColumnsSweep(t *testing.T, p Params) []figure1Point {
	t.Helper()
	net, err := newFigure1()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := net.paths()
	if err != nil {
		t.Fatal(err)
	}
	score := func(est adversary.Estimator, err error, res *network.Result, flow packet.NodeID) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		perFlow, err := adversary.ScorePerFlow(est, res.Observations(), res.Truths())
		if err != nil {
			t.Fatal(err)
		}
		return perFlow[flow].Value()
	}
	s1 := net.sources[0]
	points := make([]figure1Point, len(p.Interarrivals))
	for i, ia := range p.Interarrivals {
		pt := &points[i]
		for c, policy := range figure1Cases {
			err := figure1Run(p, net, policy, ia, func(res *network.Result) error {
				mean := p.MeanDelay
				if policy == network.PolicyForward {
					mean = 0
				}
				est, err := adversary.NewBaseline(p.Tau, mean)
				pt.mse[c] = score(est, err, res, s1)
				pt.lat[c] = res.Flows[s1].Latency.Mean
				if policy != network.PolicyRCAD {
					return nil
				}
				adaptive, err := adversary.NewAdaptive(p.Tau, p.MeanDelay, p.Capacity, p.Threshold)
				pt.mseAdaptive = score(adaptive, err, res, s1)
				pathAware, err := adversary.NewPathAware(p.Tau, p.MeanDelay, p.Capacity, p.Threshold, paths)
				pt.msePathAware = score(pathAware, err, res, s1)
				var preempts, arrivals uint64
				for _, ns := range res.Nodes {
					preempts += ns.Preemptions
					arrivals += ns.Arrivals
				}
				pt.preemptRate = float64(preempts) / float64(arrivals)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return points
}

// TestFigureColumnsMatchAllColumnsSweep holds each figure, which now runs
// and scores only its own columns, to the all-columns sweep: at small
// Packets over several seeds, every value Fig2a, Fig2b and Fig3 report
// must equal the reference bit for bit.
func TestFigureColumnsMatchAllColumnsSweep(t *testing.T) {
	figures := []struct {
		id     string
		values func(figure1Point) []float64
	}{
		{"fig2a", func(pt figure1Point) []float64 { return pt.mse[:] }},
		{"fig2b", func(pt figure1Point) []float64 { return pt.lat[:] }},
		{"fig3", func(pt figure1Point) []float64 {
			return []float64{pt.mse[2], pt.mseAdaptive, pt.msePathAware, pt.preemptRate}
		}},
	}
	for _, seed := range []uint64{1, 2, 3} {
		p, err := Params{Seed: seed, Packets: 60, Interarrivals: []float64{2, 6, 20}}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		want := allColumnsSweep(t, p)
		p.Engines = network.NewEngineCache()
		for _, fig := range figures {
			tab := mustRun(t, fig.id, p)
			if len(tab.Rows) != len(want) {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, fig.id, len(tab.Rows), len(want))
			}
			for i, row := range tab.Rows {
				ref := fig.values(want[i])
				if len(row.Values) != len(ref) {
					t.Fatalf("seed %d %s row %s: %d values, want %d", seed, fig.id, row.Label, len(row.Values), len(ref))
				}
				for j, v := range row.Values {
					if math.Float64bits(v) != math.Float64bits(ref[j]) {
						t.Errorf("seed %d %s row %s column %s = %v, all-columns sweep %v",
							seed, fig.id, row.Label, tab.Columns[j], v, ref[j])
					}
				}
			}
		}
	}
}
