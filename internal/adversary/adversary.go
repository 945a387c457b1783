// Package adversary implements the paper's two adversary models: the
// baseline estimator of §2.1/§5.1 and the adaptive estimator of §5.4.
//
// Both adversaries sit at the sink, observe packet arrivals, and estimate
// each packet's creation time. Per the threat model they are
// deployment-aware (Kerckhoff's Principle: they know τ, the delay
// distributions, and the buffer size k) and can read cleartext headers, but
// cannot decrypt payloads. The Observation type enforces that boundary in
// code: an estimator receives only the arrival time and the header — never
// a packet's ground truth or sealed payload.
//
// Estimators are scored by mean square error (§2.1): higher MSE means the
// network preserved more temporal privacy.
package adversary

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/queueing"
)

// Observation is everything the adversary sees about one packet: when it
// arrived at the sink and its cleartext routing header.
type Observation struct {
	// ArrivalTime is the sink arrival time z.
	ArrivalTime float64
	// Header is the cleartext routing header, including the origin (which
	// identifies the flow) and the hop count h.
	Header packet.Header
}

// Estimator is an adversary strategy: given an observation it estimates the
// packet's creation time x̂. Estimators may be stateful (the adaptive
// adversary tracks arrival rates); Estimate is called in arrival-time order.
type Estimator interface {
	// Estimate returns the estimated creation time for an observed packet.
	Estimate(obs Observation) float64
	// Name returns a short identifier used in reports.
	Name() string
}

// Baseline is the §2.1/§5.1 adversary. For an arrival at time z on a flow
// with hop count h it estimates
//
//	x̂ = z − h·(τ + d̄)
//
// where τ is the per-hop transmission delay and d̄ the mean per-hop
// buffering delay of the (known) delay distribution — 0 against a no-delay
// network, 1/µ against a delaying one. It neglects preemption, which is
// exactly the blind spot RCAD exploits (§5.3 case 3).
type Baseline struct {
	tau       float64
	meanDelay float64
}

var _ Estimator = (*Baseline)(nil)

// NewBaseline returns a baseline adversary knowing the per-hop transmission
// delay tau and mean per-hop buffering delay meanDelay (0 for a no-delay
// network).
func NewBaseline(tau, meanDelay float64) (*Baseline, error) {
	if tau < 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("adversary: tau must be non-negative and finite, got %v", tau)
	}
	if meanDelay < 0 || math.IsNaN(meanDelay) || math.IsInf(meanDelay, 0) {
		return nil, fmt.Errorf("adversary: mean delay must be non-negative and finite, got %v", meanDelay)
	}
	return &Baseline{tau: tau, meanDelay: meanDelay}, nil
}

// Estimate implements Estimator.
func (b *Baseline) Estimate(obs Observation) float64 {
	h := float64(obs.Header.HopCount)
	return obs.ArrivalTime - h*(b.tau+b.meanDelay)
}

// Name implements Estimator.
func (b *Baseline) Name() string { return "baseline" }

// flowTrack accumulates what the adversary can measure about one flow from
// sink arrivals alone.
type flowTrack struct {
	count uint64
	first float64
	last  float64
}

// observe folds in one arrival time.
func (f *flowTrack) observe(z float64) {
	if f.count == 0 {
		f.first = z
	}
	f.last = z
	f.count++
}

// rate returns the measured arrival rate, or 0 before two arrivals.
func (f *flowTrack) rate() float64 {
	if f.count < 2 || f.last <= f.first {
		return 0
	}
	return float64(f.count-1) / (f.last - f.first)
}

// Adaptive is the §5.4 adversary. It measures per-flow and total arrival
// rates at the sink, uses the Erlang loss formula to predict whether RCAD
// buffers are preempting, and switches its per-hop delay estimate
// accordingly:
//
//	per-hop delay = 1/µ                  when E(λtot/µ, k) < threshold,
//	per-hop delay = min(1/µ, k/λ_flow)   otherwise,
//
// with the per-hop transmission delay τ added in either case. The paper
// uses threshold 0.1 and states the high-rate estimate as hk/λ; the min
// with 1/µ is the sanity cap a deployment-aware adversary would apply,
// since preemption only ever shortens a buffering delay whose sampled mean
// is 1/µ — without it the estimator over-corrects at moderate rates and
// does worse than the baseline, contradicting Figure 3.
type Adaptive struct {
	tau       float64
	meanDelay float64
	slots     int
	threshold float64

	flows map[packet.NodeID]*flowTrack
	total flowTrack

	// switches counts estimates made in the preemption-aware regime, for
	// reporting.
	switches uint64
}

var _ Estimator = (*Adaptive)(nil)

// NewAdaptive returns an adaptive adversary knowing the per-hop transmission
// delay tau, the mean buffering delay meanDelay = 1/µ (> 0), the buffer size
// k, and using the given preemption-probability threshold (the paper's value
// is 0.1).
func NewAdaptive(tau, meanDelay float64, k int, threshold float64) (*Adaptive, error) {
	if tau < 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("adversary: tau must be non-negative and finite, got %v", tau)
	}
	if meanDelay <= 0 || math.IsNaN(meanDelay) || math.IsInf(meanDelay, 0) {
		return nil, fmt.Errorf("adversary: mean delay must be positive and finite, got %v", meanDelay)
	}
	if k < 1 {
		return nil, fmt.Errorf("adversary: buffer size must be >= 1, got %d", k)
	}
	if threshold <= 0 || threshold >= 1 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("adversary: threshold must lie in (0,1), got %v", threshold)
	}
	return &Adaptive{
		tau:       tau,
		meanDelay: meanDelay,
		slots:     k,
		threshold: threshold,
		flows:     make(map[packet.NodeID]*flowTrack),
	}, nil
}

// Estimate implements Estimator.
func (a *Adaptive) Estimate(obs Observation) float64 {
	flow := obs.Header.Origin
	ft, ok := a.flows[flow]
	if !ok {
		ft = &flowTrack{}
		a.flows[flow] = ft
	}
	ft.observe(obs.ArrivalTime)
	a.total.observe(obs.ArrivalTime)

	perHop := a.meanDelay
	totalRate := a.total.rate()
	flowRate := ft.rate()
	if totalRate > 0 && flowRate > 0 {
		// Probability that the most loaded buffer (one hop before the
		// sink, carrying λtot) is full, per the Erlang loss formula. The
		// error path is unreachable: rates and k were validated.
		if loss, err := queueing.ErlangLoss(totalRate*a.meanDelay, a.slots); err == nil && loss >= a.threshold {
			if est := float64(a.slots) / flowRate; est < perHop {
				perHop = est
				a.switches++
			}
		}
	}
	h := float64(obs.Header.HopCount)
	return obs.ArrivalTime - h*(a.tau+perHop)
}

// Name implements Estimator.
func (a *Adaptive) Name() string { return "adaptive" }

// PreemptionRegimeCount returns how many estimates used the
// preemption-aware (k/λ) delay model.
func (a *Adaptive) PreemptionRegimeCount() uint64 { return a.switches }

// PathAware is an extension of the §5.4 adaptive adversary that uses the
// full deployment knowledge the threat model grants (§2: "the adversary has
// knowledge of the positions of all sensor nodes" and, by Kerckhoff's
// Principle, of the routing algorithm). Knowing each flow's routing path, it
// computes the aggregate rate λ_node at every buffering node by summing the
// measured rates of the flows that transit it (§4's superposition), and
// estimates each hop's delay individually:
//
//	d(node) = min(1/µ, k/λ_node)   when E(λ_node/µ, k) ≥ threshold,
//	d(node) = 1/µ                  otherwise.
//
// This captures what the paper's flow-level adaptive adversary cannot: on a
// merge topology the shared near-sink hops preempt at the aggregate rate,
// so their delays shrink long before a flow's own rate saturates its
// private hops.
//
// Nodes crossed by the same set of flows share one transit class and so
// one delay — a merge tree's trunk is one class, each private branch
// another. An estimate computes the delay of each class on the observed
// flow's path once, then sums τ + d hop by hop, so its cost is linear in
// the path length plus the flows crossing those classes.
type PathAware struct {
	tau       float64
	meanDelay float64
	slots     int
	threshold float64

	// Flows are numbered by slot in ascending origin order. slotOf maps an
	// origin ID to its slot, -1 for an origin with no known path.
	slotOf []int32
	tracks []flowTrack // per slot
	// classFlows lists each class's flow slots in ascending order. The
	// class rate sums over it: float addition is not associative, so the
	// terms must always be added in one order for runs to stay
	// bit-reproducible.
	classFlows [][]int32
	// hops is each flow's path as class indices, in path order (source
	// first, sink excluded).
	hops [][]int32
	// delay caches each class's hop delay within one estimate: it is
	// current when the class's stamp equals epoch, which every estimate
	// advances.
	delay []float64
	stamp []uint64
	epoch uint64
}

var _ Estimator = (*PathAware)(nil)

// NewPathAware returns a path-aware adaptive adversary. paths maps each
// flow's origin to the buffering nodes on its routing path (source first,
// sink excluded); it must be non-empty. Remaining parameters match
// NewAdaptive.
func NewPathAware(tau, meanDelay float64, k int, threshold float64, paths map[packet.NodeID][]packet.NodeID) (*PathAware, error) {
	if tau < 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("adversary: tau must be non-negative and finite, got %v", tau)
	}
	if meanDelay <= 0 || math.IsNaN(meanDelay) || math.IsInf(meanDelay, 0) {
		return nil, fmt.Errorf("adversary: mean delay must be positive and finite, got %v", meanDelay)
	}
	if k < 1 {
		return nil, fmt.Errorf("adversary: buffer size must be >= 1, got %d", k)
	}
	if threshold <= 0 || threshold >= 1 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("adversary: threshold must lie in (0,1), got %v", threshold)
	}
	if len(paths) == 0 {
		return nil, errors.New("adversary: path-aware adversary needs at least one flow path")
	}
	order := make([]packet.NodeID, 0, len(paths))
	totalHops := 0
	for flow, path := range paths {
		if len(path) == 0 {
			return nil, fmt.Errorf("adversary: empty path for flow %v", flow)
		}
		order = append(order, flow)
		totalHops += len(path)
	}
	slices.Sort(order)

	classFlows, classOf := transitClasses(order, paths, totalHops)
	hops := make([][]int32, len(order))
	buf := make([]int32, totalHops) // every flow's hops, carved in turn
	for s, flow := range order {
		path := paths[flow]
		hops[s], buf = buf[:len(path):len(path)], buf[len(path):]
		for i, n := range path {
			hops[s][i] = classOf[n]
		}
	}

	slotOf := make([]int32, int(order[len(order)-1])+1)
	for i := range slotOf {
		slotOf[i] = -1
	}
	for s, flow := range order {
		slotOf[flow] = int32(s)
	}
	return &PathAware{
		tau:        tau,
		meanDelay:  meanDelay,
		slots:      k,
		threshold:  threshold,
		slotOf:     slotOf,
		tracks:     make([]flowTrack, len(order)),
		classFlows: classFlows,
		hops:       hops,
		delay:      make([]float64, len(classFlows)),
		stamp:      make([]uint64, len(classFlows)),
	}, nil
}

// crossing records that flow slot crosses buffering node.
type crossing struct {
	node packet.NodeID
	slot int32
}

// nodeFlows is one buffering node's flow slots, ascending.
type nodeFlows struct {
	node  packet.NodeID
	flows []int32
}

// transitClasses groups the buffering nodes on the flows' paths into
// transit classes: nodes crossed by equal sets of flows share a class. A
// flow's slot is its index in order, which lists the origins ascending. It
// returns each class's flow slots, ascending, and every node's class.
func transitClasses(order []packet.NodeID, paths map[packet.NodeID][]packet.NodeID, totalHops int) ([][]int32, map[packet.NodeID]int32) {
	// Every (node, slot) crossing, sorted by node then slot: each node's
	// run lists the flows transiting it in ascending order.
	crossings := make([]crossing, 0, totalHops)
	for s, flow := range order {
		for _, n := range paths[flow] {
			crossings = append(crossings, crossing{node: n, slot: int32(s)})
		}
	}
	slices.SortFunc(crossings, func(x, y crossing) int {
		if c := cmp.Compare(x.node, y.node); c != 0 {
			return c
		}
		return cmp.Compare(x.slot, y.slot)
	})
	crossings = slices.Compact(crossings) // a path may visit a node twice
	slots := make([]int32, len(crossings))
	nodes := make([]nodeFlows, 0, len(crossings))
	for i := 0; i < len(crossings); {
		j := i
		for ; j < len(crossings) && crossings[j].node == crossings[i].node; j++ {
			slots[j] = crossings[j].slot
		}
		nodes = append(nodes, nodeFlows{node: crossings[i].node, flows: slots[i:j:j]})
		i = j
	}

	// Sorting by flow list makes equal lists adjacent; each new list opens
	// a class.
	slices.SortFunc(nodes, func(x, y nodeFlows) int { return slices.Compare(x.flows, y.flows) })
	classFlows := make([][]int32, 0, len(nodes))
	classOf := make(map[packet.NodeID]int32, len(nodes))
	for i, nf := range nodes {
		if i == 0 || !slices.Equal(nf.flows, nodes[i-1].flows) {
			classFlows = append(classFlows, nf.flows)
		}
		classOf[nf.node] = int32(len(classFlows) - 1)
	}
	return classFlows, classOf
}

// Estimate implements Estimator.
func (a *PathAware) Estimate(obs Observation) float64 {
	s := int32(-1)
	if origin := int(obs.Header.Origin); origin < len(a.slotOf) {
		s = a.slotOf[origin]
	}
	if s < 0 {
		// Unknown flow: fall back to the baseline rule over the header's
		// hop count.
		h := float64(obs.Header.HopCount)
		return obs.ArrivalTime - h*(a.tau+a.meanDelay)
	}
	a.tracks[s].observe(obs.ArrivalTime)

	a.epoch++
	total := 0.0
	for _, c := range a.hops[s] {
		if a.stamp[c] != a.epoch {
			a.delay[c], a.stamp[c] = a.classDelay(c), a.epoch
		}
		total += a.tau + a.delay[c]
	}
	return obs.ArrivalTime - total
}

// classDelay returns the per-hop delay at the nodes of class c, from the
// aggregate measured rate of the flows transiting them.
func (a *PathAware) classDelay(c int32) float64 {
	lambda := 0.0
	for _, s := range a.classFlows[c] {
		r := a.tracks[s].rate()
		if r <= 0 {
			continue
		}
		lambda += r
	}
	d := a.meanDelay
	if lambda > 0 {
		if loss, err := queueing.ErlangLoss(lambda*a.meanDelay, a.slots); err == nil && loss >= a.threshold {
			if est := float64(a.slots) / lambda; est < d {
				d = est
			}
		}
	}
	return d
}

// Name implements Estimator.
func (a *PathAware) Name() string { return "path-aware" }

// ErrLengthMismatch is returned by the scorers when observations and truths
// differ in length.
var ErrLengthMismatch = errors.New("adversary: observations and truths differ in length")

// Score runs an estimator over a time-ordered observation sequence and
// accumulates its mean square error against the true creation times.
// truths[i] is the ground-truth creation time of observations[i].
func Score(est Estimator, observations []Observation, truths []float64) (*metrics.MSE, error) {
	if est == nil {
		return nil, errors.New("adversary: nil estimator")
	}
	if len(observations) != len(truths) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(observations), len(truths))
	}
	var mse metrics.MSE
	for i, obs := range observations {
		mse.Add(est.Estimate(obs), truths[i])
	}
	return &mse, nil
}

// Lattice decorates another estimator with knowledge that sources create
// packets on a periodic lattice (the paper's §5.2 evaluation traffic): the
// inner estimate is snapped to the nearest multiple of the period. When the
// inner estimator's error is already below half a period this recovers the
// creation time *exactly*; once buffering noise exceeds the period the
// snapping is useless — quantifying that delay budgets must exceed the
// source's own timing granularity to matter.
type Lattice struct {
	inner  Estimator
	period float64
}

var _ Estimator = (*Lattice)(nil)

// NewLattice wraps inner with period-snapping. The period must be positive.
func NewLattice(inner Estimator, period float64) (*Lattice, error) {
	if inner == nil {
		return nil, errors.New("adversary: nil inner estimator")
	}
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("adversary: lattice period must be positive and finite, got %v", period)
	}
	return &Lattice{inner: inner, period: period}, nil
}

// Estimate implements Estimator.
func (l *Lattice) Estimate(obs Observation) float64 {
	raw := l.inner.Estimate(obs)
	return math.Round(raw/l.period) * l.period
}

// Name implements Estimator.
func (l *Lattice) Name() string { return l.inner.Name() + "+lattice" }

// BestConstantOffsetMSE returns, per flow, the MSE of the strongest
// constant-offset estimator: a genie that knows each flow's exact mean
// delivery delay and estimates x̂ = z − mean. No estimator of the form
// z − c can do better, so this is a scheme-independent privacy floor —
// useful for comparing unlike delaying mechanisms (RCAD vs batching mixes)
// whose delay distributions the parametric adversaries do not model. The
// value equals the per-flow variance of delivery latency.
func BestConstantOffsetMSE(observations []Observation, truths []float64) (map[packet.NodeID]float64, error) {
	if len(observations) != len(truths) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(observations), len(truths))
	}
	acc := make(map[packet.NodeID]*metrics.Welford)
	for i, obs := range observations {
		w, ok := acc[obs.Header.Origin]
		if !ok {
			w = &metrics.Welford{}
			acc[obs.Header.Origin] = w
		}
		w.Add(obs.ArrivalTime - truths[i])
	}
	out := make(map[packet.NodeID]float64, len(acc))
	for flow, w := range acc {
		out[flow] = w.Variance()
	}
	return out, nil
}

// ScorePerFlow runs an estimator over a time-ordered observation sequence
// and accumulates a separate MSE per flow (origin node), matching the
// paper's per-flow reporting ("The results reported are for the flow S1").
func ScorePerFlow(est Estimator, observations []Observation, truths []float64) (map[packet.NodeID]*metrics.MSE, error) {
	if est == nil {
		return nil, errors.New("adversary: nil estimator")
	}
	if len(observations) != len(truths) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(observations), len(truths))
	}
	out := make(map[packet.NodeID]*metrics.MSE)
	for i, obs := range observations {
		estimate := est.Estimate(obs)
		m, ok := out[obs.Header.Origin]
		if !ok {
			m = &metrics.MSE{}
			out[obs.Header.Origin] = m
		}
		m.Add(estimate, truths[i])
	}
	return out, nil
}
