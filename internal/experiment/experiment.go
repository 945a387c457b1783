// Package experiment defines the reproducible experiments of this
// repository: one per results figure in the paper (Figures 2(a), 2(b), 3),
// one per analytic claim worth validating against simulation (§3's
// information bounds, §4's queueing formulas), and one per design-choice
// ablation called out in DESIGN.md.
//
// Every experiment is a pure function of Params (seed included) returning a
// report.Table, so the whole evaluation is regenerable with
// `go run ./cmd/sweep -exp all` or benchmarked with `go test -bench .`.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tempriv/internal/adversary"
	"tempriv/internal/delay"
	"tempriv/internal/network"
	"tempriv/internal/packet"
	"tempriv/internal/report"
	"tempriv/internal/routing"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

// Params are the shared experiment knobs, defaulting to the paper's §5.2
// settings.
type Params struct {
	// Seed drives all randomness; equal Params produce identical tables.
	Seed uint64
	// Packets is the number of packets per source (paper: 1000).
	Packets int
	// Interarrivals is the 1/λ sweep (paper: 2 … 20 time units).
	Interarrivals []float64
	// MeanDelay is the per-hop mean buffering delay 1/µ (paper: 30).
	MeanDelay float64
	// Capacity is the buffer size k (paper: 10, a Mica-2 approximation).
	Capacity int
	// Tau is the per-hop transmission delay τ (paper: 1).
	Tau float64
	// Threshold is the adaptive adversary's Erlang-loss switch point
	// (paper: 0.1).
	Threshold float64
	// Engines optionally pools reusable simulation engines across the
	// experiment's runs (see network.EngineCache): runs on one topology
	// with one policy, capacity, victim rule and rate-control design point
	// share routes, pools and the packet arena across every sweep point
	// and replicate instead of rebuilding them per run. Every experiment
	// scores each run inside network.RunBorrowed, so the cache also
	// recycles the runs' results: a run's deliveries and stats refill the
	// result an earlier run handed back. Execution-only — neither kind of
	// reuse affects result bytes — and safe to share across parallel sweep
	// workers: the cache keeps a stack of engines per structure, and one of
	// idle results, each as deep as the most runs in flight at once. When
	// it is nil, ReplicateRun gives each replication worker a cache of its
	// own.
	Engines *network.EngineCache
}

// Defaults returns the paper's evaluation parameters (§5.2).
func Defaults() Params {
	return Params{
		Seed:          1,
		Packets:       1000,
		Interarrivals: []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		MeanDelay:     30,
		Capacity:      10,
		Tau:           1,
		Threshold:     0.1,
	}
}

// normalized fills zero fields of p from Defaults and validates the rest.
func (p Params) normalized() (Params, error) {
	d := Defaults()
	if p.Packets == 0 {
		p.Packets = d.Packets
	}
	if len(p.Interarrivals) == 0 {
		p.Interarrivals = d.Interarrivals
	}
	if p.MeanDelay == 0 {
		p.MeanDelay = d.MeanDelay
	}
	if p.Capacity == 0 {
		p.Capacity = d.Capacity
	}
	if p.Tau == 0 {
		p.Tau = d.Tau
	}
	if p.Threshold == 0 {
		p.Threshold = d.Threshold
	}
	if p.Packets < 0 {
		return p, fmt.Errorf("experiment: negative packet count %d", p.Packets)
	}
	if p.MeanDelay < 0 || p.Tau < 0 {
		return p, fmt.Errorf("experiment: negative delay parameters")
	}
	if p.Capacity < 1 {
		return p, fmt.Errorf("experiment: capacity must be >= 1, got %d", p.Capacity)
	}
	for _, ia := range p.Interarrivals {
		if ia <= 0 {
			return p, fmt.Errorf("experiment: non-positive interarrival %v", ia)
		}
	}
	return p, nil
}

// Experiment is one reproducible study.
type Experiment struct {
	// ID is the stable identifier used by cmd/sweep and the benchmarks.
	ID string
	// Title is a one-line human description.
	Title string
	// Paper locates the corresponding artifact in the paper.
	Paper string
	// Run executes the experiment.
	Run func(p Params) (*report.Table, error)
}

// All returns every registered experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2a", Title: "Adversary MSE vs packet interarrival time (three buffering cases)", Paper: "Figure 2(a)", Run: Fig2a},
		{ID: "fig2b", Title: "Average delivery latency vs packet interarrival time (three buffering cases)", Paper: "Figure 2(b)", Run: Fig2b},
		{ID: "fig3", Title: "Baseline vs adaptive adversary MSE under RCAD", Paper: "Figure 3", Run: Fig3},
		{ID: "eq2-epi", Title: "Entropy-power-inequality lower bound vs exact/empirical mutual information", Paper: "§3.1 eq. (2)", Run: Eq2EPI},
		{ID: "eq4-bound", Title: "Anantharam–Verdú bound vs empirical I(Xj;Zj) for Poisson source, Exp delay", Paper: "§3.2 eq. (4)", Run: Eq4Bound},
		{ID: "mm-inf", Title: "Buffer-occupancy distribution vs M/M/∞ and M/M/k/k analysis", Paper: "§4", Run: MMInf},
		{ID: "occupancy", Title: "Trunk buffer-occupancy time series under RCAD (telemetry sampler)", Paper: "§4", Run: Occupancy},
		{ID: "erlang", Title: "Simulated drop/preemption rate vs Erlang loss formula", Paper: "§4 eq. (5)", Run: Erlang},
		{ID: "abl-victim", Title: "RCAD victim-selection ablation", Paper: "§5 design choice", Run: AblVictim},
		{ID: "abl-dist", Title: "Delay-distribution ablation at equal mean", Paper: "§3.2 design choice", Run: AblDist},
		{ID: "abl-buffer", Title: "Privacy/latency/preemption vs buffer size k", Paper: "§4–§5 tradeoff", Run: AblBuffer},
		{ID: "abl-mu", Title: "Privacy vs buffer occupancy as 1/µ grows", Paper: "§3.2/§4 conflict", Run: AblMu},
		{ID: "abl-decomp", Title: "Delay decomposition across the routing path", Paper: "§3.3", Run: AblDecomp},
		{ID: "abl-mix", Title: "RCAD vs mix-network mechanisms (SG-mix, pool mix, timed mix)", Paper: "§6 related work", Run: AblMix},
		{ID: "abl-lattice", Title: "Lattice adversary vs delay budget (periodic sources leak their grid)", Paper: "§5.2 extension", Run: AblLattice},
		{ID: "sort-reorder", Title: "Arrival reordering under independent delays (sorted-process premise)", Paper: "§3.2", Run: SortReorder},
		{ID: "abl-linkloss", Title: "Delivery, ARQ work, and privacy under lossy links", Paper: "robustness extension", Run: AblLinkLoss},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (known: %v)", id, IDs())
}

// IDs returns all experiment IDs in presentation order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// parallelFor runs f(i) for i in [0, n) on up to GOMAXPROCS goroutines and
// returns the first error (by index order) if any.
func parallelFor(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// figure1Net is the paper's evaluation network: the Figure 1 topology and
// its sources in S1…S4 order. An experiment call builds it once and shares
// it read-only with all of its runs and workers, because engines only read
// a topology.
type figure1Net struct {
	topo    *topology.Topology
	sources []packet.NodeID
}

// newFigure1 builds the Figure 1 network.
func newFigure1() (figure1Net, error) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		return figure1Net{}, fmt.Errorf("experiment: building topology: %w", err)
	}
	return figure1Net{topo: topo, sources: sources}, nil
}

// periodic returns one traffic source per flow, each sending count
// packets, one every interarrival time units.
func (f figure1Net) periodic(count int, interarrival float64) ([]network.Source, error) {
	proc, err := traffic.NewPeriodic(interarrival)
	if err != nil {
		return nil, fmt.Errorf("experiment: traffic: %w", err)
	}
	srcs := make([]network.Source, len(f.sources))
	for i, s := range f.sources {
		srcs[i] = network.Source{Node: s, Process: proc, Count: count}
	}
	return srcs, nil
}

// paths returns each flow's buffering nodes (source through last relay,
// sink excluded), for the path-aware adversary. Routing is deterministic,
// so this matches every run's routing exactly.
func (f figure1Net) paths() (map[packet.NodeID][]packet.NodeID, error) {
	routes, err := routing.BuildTree(f.topo)
	if err != nil {
		return nil, fmt.Errorf("experiment: routing: %w", err)
	}
	return routes.FlowPaths(f.sources)
}

// figure1Run executes one simulation of the paper's evaluation network:
// four periodic sources with hop counts 15/22/9/11, p.Packets packets each,
// a given buffering policy and interarrival time. It lends the result to
// use, which must be done with it when it returns (network.RunBorrowed).
func figure1Run(p Params, net figure1Net, policy network.PolicyKind, interarrival float64, use func(*network.Result) error) error {
	srcs, err := net.periodic(p.Packets, interarrival)
	if err != nil {
		return err
	}
	var dist delay.Distribution
	if policy != network.PolicyForward {
		d, err := delay.NewExponential(p.MeanDelay)
		if err != nil {
			return fmt.Errorf("experiment: delay: %w", err)
		}
		dist = d
	}
	err = network.RunBorrowed(p.Engines, network.Config{
		Topology:          net.topo,
		Sources:           srcs,
		Policy:            policy,
		Delay:             dist,
		Capacity:          p.Capacity,
		TransmissionDelay: p.Tau,
		Seed:              p.Seed,
	}, use)
	if err != nil {
		return fmt.Errorf("experiment: simulating %v at 1/λ=%v: %w", policy, interarrival, err)
	}
	return nil
}

// scoreFlow runs a fresh baseline adversary over a result and returns the
// MSE for the given flow. meanDelay is the per-hop buffering delay the
// adversary assumes (0 against a no-delay network).
func scoreFlow(p Params, res *network.Result, flow packet.NodeID, meanDelay float64) (float64, error) {
	est, err := adversary.NewBaseline(p.Tau, meanDelay)
	if err != nil {
		return 0, fmt.Errorf("experiment: adversary: %w", err)
	}
	return flowMSE(res, est, flow)
}

// flowMSE scores est over a result in place and returns the given flow's
// MSE, treating a flow with no deliveries as an error.
func flowMSE(res *network.Result, est adversary.Estimator, flow packet.NodeID) (float64, error) {
	_, perFlow, err := res.Score(est)
	if err != nil {
		return 0, fmt.Errorf("experiment: scoring: %w", err)
	}
	m, ok := perFlow[flow]
	if !ok {
		return 0, fmt.Errorf("experiment: no deliveries for flow %v", flow)
	}
	return m.Value(), nil
}

// formatSweepLabel renders an interarrival label.
func formatSweepLabel(v float64) string {
	return fmt.Sprintf("%g", v)
}

// sortedNodeIDs returns the keys of a node-stat map in ascending order.
func sortedNodeIDs[V any](m map[packet.NodeID]V) []packet.NodeID {
	out := make([]packet.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
