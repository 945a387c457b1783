package experiment

import (
	"fmt"

	"tempriv/internal/delay"
	"tempriv/internal/network"
	"tempriv/internal/report"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
)

// occupancyRows is the number of time points the occupancy series reports.
// Sampling covers the source-active window (periodic sources, so its length
// is deterministic), which keeps the table shape identical across seeds and
// makes the experiment replicable.
const occupancyRows = 48

// Occupancy records the §4 buffer-occupancy process N(t) as a time series:
// one Figure-1 simulation under RCAD at the first interarrival of the
// sweep, sampled by the telemetry sim-time sampler into a Memory emitter.
// Columns follow flow S3's trunk path node by node (the progressive-merge
// region whose occupancy §4 models as M/M/k/k), plus network-wide totals.
func Occupancy(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	ia := p.Interarrivals[0]

	net, err := newFigure1()
	if err != nil {
		return nil, err
	}
	srcs, err := net.periodic(p.Packets, ia)
	if err != nil {
		return nil, err
	}
	dist, err := delay.NewExponential(p.MeanDelay)
	if err != nil {
		return nil, fmt.Errorf("experiment: delay: %w", err)
	}

	// Sources emit periodically, so the active window [0, (Packets-1)·1/λ]
	// has deterministic length; sampling it in occupancyRows steps gives the
	// same row labels for every seed.
	window := ia * float64(p.Packets-1)
	if window <= 0 {
		return nil, fmt.Errorf("experiment: occupancy needs >= 2 packets per source, got %d", p.Packets)
	}
	every := window / occupancyRows

	// The table reads only the sampler's series; the run's duration is
	// kept for the error below.
	var duration float64
	mem := &telemetry.Memory{}
	err = network.RunBorrowed(p.Engines, network.Config{
		Topology:          net.topo,
		Sources:           srcs,
		Policy:            network.PolicyRCAD,
		Delay:             dist,
		Capacity:          p.Capacity,
		TransmissionDelay: p.Tau,
		Seed:              p.Seed,
		Telemetry: &telemetry.Config{
			SampleEvery: every,
			Emitter:     mem,
		},
	}, func(res *network.Result) error {
		duration = res.Duration
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: simulating occupancy series: %w", err)
	}

	// Trunk nodes in source→sink order: flow S3 (9 hops over an 8-hop
	// trunk) attaches directly to the trunk head, so its path minus the
	// source and sink is exactly the trunk.
	paths, err := net.paths()
	if err != nil {
		return nil, err
	}
	trunk := paths[net.sources[2]][1:]
	if len(trunk) != topology.Figure1TrunkLen {
		return nil, fmt.Errorf("experiment: trunk has %d nodes, want %d", len(trunk), topology.Figure1TrunkLen)
	}

	t := &report.Table{
		Title:     "Occupancy time series: trunk buffering under RCAD (§4)",
		RowHeader: "t",
		Notes: []string{
			fmt.Sprintf("one Figure-1 run, RCAD, 1/λ=%g, 1/µ=%g, k=%d, τ=%g, seed=%d", ia, p.MeanDelay, p.Capacity, p.Tau, p.Seed),
			fmt.Sprintf("telemetry sampler, interval %g time units over the source-active window [0, %g]", every, window),
			"trunk columns run source→sink along flow S3's shared path; §4 models each as M/M/k/k",
		},
	}
	for i := range trunk {
		t.Columns = append(t.Columns, fmt.Sprintf("trunk%d", i+1))
	}
	t.Columns = append(t.Columns, "buffered-total", "in-flight", "delivered")

	rows := 0
	for _, s := range mem.Samples() {
		if s.At > window+1e-9 || rows == occupancyRows {
			break
		}
		rows++
		values := make([]float64, 0, len(trunk)+3)
		for _, id := range trunk {
			values = append(values, float64(s.Occupancy[id]))
		}
		values = append(values, float64(s.Buffered), float64(s.InFlight), float64(s.Delivered))
		t.AddRow(formatSweepLabel(s.At), values...)
	}
	if rows == 0 {
		return nil, fmt.Errorf("experiment: occupancy sampler produced no samples (duration %g, interval %g)", duration, every)
	}
	return t, nil
}
