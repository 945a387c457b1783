package adversary

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tempriv/internal/packet"
	"tempriv/internal/queueing"
	"tempriv/internal/rng"
	"tempriv/internal/routing"
	"tempriv/internal/topology"
)

func obs(z float64, origin packet.NodeID, hops uint8) Observation {
	return Observation{
		ArrivalTime: z,
		Header:      packet.Header{Origin: origin, PrevHop: 1, HopCount: hops},
	}
}

func TestBaselineNoDelayNetworkIsExact(t *testing.T) {
	// Against a network with only transmission delays, x̂ = z − h·τ is
	// exact: the paper's case 1 (near-zero MSE).
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const created, hops = 100.0, 15
	z := created + hops*1.0
	if got := b.Estimate(obs(z, 5, hops)); math.Abs(got-created) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, created)
	}
}

func TestBaselineSubtractsMeanDelay(t *testing.T) {
	b, err := NewBaseline(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Estimate(obs(565, 5, 15))
	want := 565.0 - 15*31
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
}

func TestBaselineUnbiasedAgainstUnlimitedBuffers(t *testing.T) {
	// Case 2 of §5.3: with unlimited buffers, per-hop delay averages 1/µ,
	// so the baseline estimator is unbiased and its MSE equals the variance
	// of the total delay: h·(1/µ)² for exponential per-hop delays.
	const tau, meanDelay, hops = 1.0, 30.0, 15
	b, err := NewBaseline(tau, meanDelay)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	var observations []Observation
	var truths []float64
	for i := 0; i < 20000; i++ {
		created := float64(i) * 10
		total := 0.0
		for h := 0; h < hops; h++ {
			total += tau + src.Exponential(meanDelay)
		}
		observations = append(observations, obs(created+total, 5, hops))
		truths = append(truths, created)
	}
	mse, err := Score(b, observations, truths)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(hops) * meanDelay * meanDelay // 13500
	if math.Abs(mse.Value()-want) > 0.05*want {
		t.Fatalf("MSE = %v, want ≈ %v", mse.Value(), want)
	}
	if math.Abs(mse.Bias()) > 5 {
		t.Fatalf("bias = %v, want ≈ 0", mse.Bias())
	}
}

func TestBaselineValidation(t *testing.T) {
	if _, err := NewBaseline(-1, 0); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := NewBaseline(1, math.NaN()); err == nil {
		t.Fatal("NaN delay accepted")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(1, 0, 10, 0.1); err == nil {
		t.Fatal("zero mean delay accepted")
	}
	if _, err := NewAdaptive(1, 30, 0, 0.1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewAdaptive(1, 30, 10, 0); err == nil {
		t.Fatal("threshold=0 accepted")
	}
	if _, err := NewAdaptive(1, 30, 10, 1); err == nil {
		t.Fatal("threshold=1 accepted")
	}
	if _, err := NewAdaptive(-1, 30, 10, 0.1); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestAdaptiveMatchesBaselineAtLowRates(t *testing.T) {
	// At low traffic (E(ρ,k) below threshold) the adaptive adversary uses
	// the same h/µ rule as the baseline (§5.4).
	const tau, meanDelay = 1.0, 30.0
	a, err := NewAdaptive(tau, meanDelay, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBaseline(tau, meanDelay)
	if err != nil {
		t.Fatal(err)
	}
	// Interarrival 1000 ≫ 1/µ: utilization ρ = 0.03, loss ≈ 0.
	for i := 0; i < 50; i++ {
		z := float64(i) * 1000
		o := obs(z, 5, 15)
		if got, want := a.Estimate(o), b.Estimate(o); math.Abs(got-want) > 1e-9 {
			t.Fatalf("arrival %d: adaptive %v != baseline %v at low rate", i, got, want)
		}
	}
	if a.PreemptionRegimeCount() != 0 {
		t.Fatalf("adaptive switched regimes %d times at low rate", a.PreemptionRegimeCount())
	}
}

func TestAdaptiveSwitchesAtHighRates(t *testing.T) {
	// Interarrival 2 with 1/µ = 30 and k = 10: ρ = 15, E(15,10) ≈ 0.2 > 0.1,
	// so the adaptive adversary must switch to the k/λ delay model.
	const tau, meanDelay, k = 1.0, 30.0, 10
	a, err := NewAdaptive(tau, meanDelay, k, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 100; i++ {
		z := float64(i) * 2
		last = a.Estimate(obs(z, 5, 15))
	}
	if a.PreemptionRegimeCount() == 0 {
		t.Fatal("adaptive adversary never entered the preemption regime")
	}
	// In the preemption regime the per-hop delay estimate is k/λ = 20, so
	// x̂ = z − 15·(1 + 20).
	z := 99 * 2.0
	want := z - 15*(tau+float64(k)/0.5)
	if math.Abs(last-want) > 1.0 {
		t.Fatalf("estimate = %v, want ≈ %v", last, want)
	}
}

func TestAdaptiveTracksPerFlowRates(t *testing.T) {
	// Two flows at different rates: the per-hop estimate must use each
	// flow's own λ. Mean delay 60 keeps the min(1/µ, k/λ) cap from binding
	// for either flow (k/λ = 20 and 40).
	const tau, meanDelay, k = 1.0, 60.0, 10
	a, err := NewAdaptive(tau, meanDelay, k, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: flow 5 every 2 units, flow 9 every 4 units. λtot = 0.75,
	// ρ = 22.5 → loss well above threshold.
	var estFlow5, estFlow9 float64
	for i := 0; i < 200; i++ {
		z := float64(i) * 2
		estFlow5 = a.Estimate(obs(z, 5, 10))
		if i%2 == 0 {
			estFlow9 = a.Estimate(obs(z+0.5, 9, 10))
		}
	}
	// Flow 5: λ=0.5 → per-hop 20; flow 9: λ=0.25 → per-hop 40.
	z5 := 199 * 2.0
	z9 := 198*2.0 + 0.5
	want5 := z5 - 10*(tau+20)
	want9 := z9 - 10*(tau+40)
	if math.Abs(estFlow5-want5) > 2 {
		t.Fatalf("flow 5 estimate = %v, want ≈ %v", estFlow5, want5)
	}
	if math.Abs(estFlow9-want9) > 2 {
		t.Fatalf("flow 9 estimate = %v, want ≈ %v", estFlow9, want9)
	}
}

// TestAdaptiveBeatsBaselineUnderPreemption reproduces Figure 3's key
// relationship in miniature: when the real per-hop delays are k/λ (heavy
// preemption) rather than 1/µ, the adaptive adversary's MSE is far below
// the baseline's.
func TestAdaptiveBeatsBaselineUnderPreemption(t *testing.T) {
	const tau, meanDelay, k, hops = 1.0, 30.0, 10.0, 15
	const interarrival = 2.0
	src := rng.New(11)
	var observations []Observation
	var truths []float64
	for i := 0; i < 5000; i++ {
		created := float64(i) * interarrival
		// Under heavy preemption the effective per-hop delay concentrates
		// around k/λ = 20.
		total := 0.0
		for h := 0; h < hops; h++ {
			total += tau + src.Exponential(k*interarrival)
		}
		observations = append(observations, obs(created+total, 5, hops))
		truths = append(truths, created)
	}
	baseline, err := NewBaseline(tau, meanDelay)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewAdaptive(tau, meanDelay, int(k), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mseB, err := Score(baseline, observations, truths)
	if err != nil {
		t.Fatal(err)
	}
	mseA, err := Score(adaptive, observations, truths)
	if err != nil {
		t.Fatal(err)
	}
	if mseA.Value() >= mseB.Value()/2 {
		t.Fatalf("adaptive MSE %v not well below baseline %v", mseA.Value(), mseB.Value())
	}
}

func TestScoreValidation(t *testing.T) {
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Score(nil, nil, nil); err == nil {
		t.Fatal("nil estimator accepted")
	}
	if _, err := Score(b, make([]Observation, 2), make([]float64, 3)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("mismatched lengths: %v", err)
	}
}

func TestScorePerFlowSeparatesFlows(t *testing.T) {
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	observations := []Observation{
		obs(10, 5, 5), // flow 5: estimate 5, truth 5 → error 0
		obs(20, 9, 5), // flow 9: estimate 15, truth 10 → error 5
	}
	truths := []float64{5, 10}
	perFlow, err := ScorePerFlow(b, observations, truths)
	if err != nil {
		t.Fatal(err)
	}
	if len(perFlow) != 2 {
		t.Fatalf("flows = %d, want 2", len(perFlow))
	}
	if got := perFlow[5].Value(); got != 0 {
		t.Fatalf("flow 5 MSE = %v, want 0", got)
	}
	if got := perFlow[9].Value(); math.Abs(got-25) > 1e-12 {
		t.Fatalf("flow 9 MSE = %v, want 25", got)
	}
}

func TestScorePerFlowValidation(t *testing.T) {
	if _, err := ScorePerFlow(nil, nil, nil); err == nil {
		t.Fatal("nil estimator accepted")
	}
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScorePerFlow(b, make([]Observation, 1), nil); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("mismatched lengths: %v", err)
	}
}

// Property: the baseline estimate is linear in the arrival time with unit
// slope — shifting an observation by Δ shifts the estimate by Δ.
func TestBaselineShiftInvarianceProperty(t *testing.T) {
	b, err := NewBaseline(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	f := func(zRaw int32, shiftRaw int16, hops uint8) bool {
		z := float64(zRaw) / 100
		shift := float64(shiftRaw) / 100
		e1 := b.Estimate(obs(z, 5, hops))
		e2 := b.Estimate(obs(z+shift, 5, hops))
		return math.Abs((e2-e1)-shift) < 1e-9*math.Max(1, math.Abs(z))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPathAwareValidation(t *testing.T) {
	paths := map[packet.NodeID][]packet.NodeID{5: {5, 3, 1}}
	if _, err := NewPathAware(-1, 30, 10, 0.1, paths); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := NewPathAware(1, 0, 10, 0.1, paths); err == nil {
		t.Fatal("zero mean delay accepted")
	}
	if _, err := NewPathAware(1, 30, 0, 0.1, paths); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewPathAware(1, 30, 10, 1, paths); err == nil {
		t.Fatal("threshold=1 accepted")
	}
	if _, err := NewPathAware(1, 30, 10, 0.1, nil); err == nil {
		t.Fatal("nil paths accepted")
	}
	if _, err := NewPathAware(1, 30, 10, 0.1, map[packet.NodeID][]packet.NodeID{5: nil}); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestPathAwareMatchesBaselineAtLowRates(t *testing.T) {
	paths := map[packet.NodeID][]packet.NodeID{5: {5, 4, 3, 2, 1}}
	a, err := NewPathAware(1, 30, 10, 0.1, paths)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBaseline(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		z := float64(i) * 1000
		o := obs(z, 5, 5)
		if got, want := a.Estimate(o), b.Estimate(o); math.Abs(got-want) > 1e-9 {
			t.Fatalf("arrival %d: path-aware %v != baseline %v at low rate", i, got, want)
		}
	}
}

func TestPathAwareExploitsSharedTrunk(t *testing.T) {
	// Two flows share node 1 (adjacent to the sink). Per-flow rate 0.25
	// cannot saturate k=10/λ=40 > 1/µ=30, but the shared node sees λ=0.5
	// and its delay collapses to k/λnode=20. Only a path-aware adversary
	// shortens its estimate for that hop.
	paths := map[packet.NodeID][]packet.NodeID{
		5: {5, 1},
		9: {9, 1},
	}
	a, err := NewPathAware(1, 30, 10, 0.1, paths)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 200; i++ {
		z := float64(i) * 4
		last = a.Estimate(obs(z, 5, 2))
		a.Estimate(obs(z+2, 9, 2))
	}
	// Private hop (node 5, λ=0.25): E(0.25·30, 10) ≈ 0 → delay 30.
	// Shared hop (node 1, λ=0.5): E(15, 10) ≈ 0.41 → delay min(30, 20) = 20.
	z := 199 * 4.0
	want := z - (1 + 30) - (1 + 20)
	if math.Abs(last-want) > 2 {
		t.Fatalf("estimate = %v, want ≈ %v (trunk-aware per-hop delays)", last, want)
	}
}

func TestPathAwareUnknownFlowFallsBack(t *testing.T) {
	paths := map[packet.NodeID][]packet.NodeID{5: {5, 1}}
	a, err := NewPathAware(1, 30, 10, 0.1, paths)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Estimate(obs(100, 77, 3))
	want := 100 - 3*(1+30.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("unknown-flow estimate = %v, want baseline %v", got, want)
	}
}

func TestPathAwareCopiesPaths(t *testing.T) {
	path := []packet.NodeID{5, 1}
	a, err := NewPathAware(1, 30, 10, 0.1, map[packet.NodeID][]packet.NodeID{5: path})
	if err != nil {
		t.Fatal(err)
	}
	path[0] = 99 // caller mutation must not affect the adversary
	before := a.Estimate(obs(10, 5, 2))
	if math.IsNaN(before) {
		t.Fatal("estimate NaN")
	}
}

func TestPathAwareName(t *testing.T) {
	a, err := NewPathAware(1, 30, 10, 0.1, map[packet.NodeID][]packet.NodeID{5: {5}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "path-aware" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestLatticeValidation(t *testing.T) {
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLattice(nil, 2); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewLattice(b, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewLattice(b, math.Inf(1)); err == nil {
		t.Fatal("infinite period accepted")
	}
}

func TestLatticeSnapsSmallErrors(t *testing.T) {
	// Creation times on a period-10 lattice; inner estimates off by ±3 are
	// recovered exactly.
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLattice(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	// truth 50, 1 hop: arrival 51 → inner estimate 50 → exact. Perturb the
	// arrival by +3: inner 53 → snap to 50.
	if got := l.Estimate(obs(54, 5, 1)); got != 50 {
		t.Fatalf("snapped estimate = %v, want 50", got)
	}
	if got := l.Estimate(obs(51, 5, 1)); got != 50 {
		t.Fatalf("exact estimate = %v, want 50", got)
	}
}

func TestLatticeCannotBeatLargeNoise(t *testing.T) {
	// When the per-packet error std ≫ period, snapping changes nothing
	// statistically: the lattice MSE stays within a quantization term of
	// the raw MSE.
	const period = 10.0
	src := rng.New(31)
	b, err := NewBaseline(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLattice(b, period)
	if err != nil {
		t.Fatal(err)
	}
	var rawMSE, latMSE MSEPair
	for i := 0; i < 20000; i++ {
		truth := float64(i) * period
		// Effective delay noise with std ≈ 120 ≫ period.
		z := truth + 15 + src.Exponential(120)
		o := obs(z, 5, 15)
		rawMSE.add(b.Estimate(o), truth)
		latMSE.add(l.Estimate(o), truth)
	}
	if latMSE.value() < 0.9*rawMSE.value() {
		t.Fatalf("lattice MSE %v beat raw %v despite noise ≫ period", latMSE.value(), rawMSE.value())
	}
}

func TestLatticeBeatsRawAtSmallNoise(t *testing.T) {
	// With noise std well under half a period the lattice recovers most
	// creation times exactly.
	const period = 20.0
	src := rng.New(37)
	b, err := NewBaseline(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLattice(b, period)
	if err != nil {
		t.Fatal(err)
	}
	var rawMSE, latMSE MSEPair
	for i := 0; i < 20000; i++ {
		truth := float64(i) * period
		z := truth + 1 + src.Exponential(2) // 1-hop, mean delay 2, std 2
		o := obs(z, 5, 1)
		rawMSE.add(b.Estimate(o), truth)
		latMSE.add(l.Estimate(o), truth)
	}
	if latMSE.value() > 0.5*rawMSE.value() {
		t.Fatalf("lattice MSE %v not well below raw %v at small noise", latMSE.value(), rawMSE.value())
	}
}

func TestLatticeName(t *testing.T) {
	b, err := NewBaseline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLattice(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "baseline+lattice" {
		t.Fatalf("Name = %q", l.Name())
	}
}

// MSEPair is a tiny local accumulator so lattice tests do not depend on
// package metrics.
type MSEPair struct {
	n   int
	sum float64
}

func (m *MSEPair) add(est, truth float64) {
	m.n++
	m.sum += (est - truth) * (est - truth)
}

func (m *MSEPair) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func TestPathAwareNodeRateOrderIsSorted(t *testing.T) {
	// A class's rate sums floating-point per-flow rates; the sum must run
	// in ascending flow order, never map order, or estimates differ at ulp
	// scale between processes and break bit-reproducible replication.
	paths := map[packet.NodeID][]packet.NodeID{
		9: {9, 2, 1}, 3: {3, 2, 1}, 7: {7, 2, 1}, 5: {5, 2, 1},
	}
	a, err := NewPathAware(1, 30, 10, 0.1, paths)
	if err != nil {
		t.Fatal(err)
	}
	// The shared trunk {2, 1} is one class crossed by all four flows.
	var trunk []int32
	for _, flows := range a.classFlows {
		if !slices.IsSorted(flows) {
			t.Fatalf("class flows %v not in ascending slot order", flows)
		}
		if len(flows) == 4 {
			trunk = flows
		}
	}
	if want := []int32{0, 1, 2, 3}; !slices.Equal(trunk, want) {
		t.Fatalf("trunk class flows = %v, want %v (slots of origins 3, 5, 7, 9)", trunk, want)
	}
	for origin, slot := range map[packet.NodeID]int32{3: 0, 5: 1, 7: 2, 9: 3, 4: -1} {
		if got := a.slotOf[origin]; got != slot {
			t.Fatalf("slot of origin %v = %d, want %d", origin, got, slot)
		}
	}
}

// refPathAware is the path-aware estimator in its direct form: for every
// hop it re-sums the rates of all flows whose path contains the hop's node,
// in ascending flow order, and re-runs the Erlang loss test. It is the
// reference TestPathAwareMatchesReference holds the class-based
// implementation to, bit for bit.
type refPathAware struct {
	tau, meanDelay, threshold float64
	slots                     int
	paths                     map[packet.NodeID][]packet.NodeID
	order                     []packet.NodeID
	flows                     map[packet.NodeID]*flowTrack
}

func newRefPathAware(tau, meanDelay float64, k int, threshold float64, paths map[packet.NodeID][]packet.NodeID) *refPathAware {
	a := &refPathAware{
		tau: tau, meanDelay: meanDelay, threshold: threshold, slots: k,
		paths: make(map[packet.NodeID][]packet.NodeID, len(paths)),
		flows: make(map[packet.NodeID]*flowTrack),
	}
	for flow, path := range paths {
		a.paths[flow] = slices.Clone(path)
		a.order = append(a.order, flow)
	}
	slices.Sort(a.order)
	return a
}

func (a *refPathAware) Estimate(o Observation) float64 {
	flow := o.Header.Origin
	ft, ok := a.flows[flow]
	if !ok {
		ft = &flowTrack{}
		a.flows[flow] = ft
	}
	ft.observe(o.ArrivalTime)
	path, ok := a.paths[flow]
	if !ok {
		h := float64(o.Header.HopCount)
		return o.ArrivalTime - h*(a.tau+a.meanDelay)
	}
	total := 0.0
	for _, node := range path {
		lambda := a.nodeRate(node)
		d := a.meanDelay
		if lambda > 0 {
			if loss, err := queueing.ErlangLoss(lambda*a.meanDelay, a.slots); err == nil && loss >= a.threshold {
				if est := float64(a.slots) / lambda; est < d {
					d = est
				}
			}
		}
		total += a.tau + d
	}
	return o.ArrivalTime - total
}

func (a *refPathAware) nodeRate(node packet.NodeID) float64 {
	total := 0.0
	for _, flow := range a.order {
		ft, ok := a.flows[flow]
		if !ok {
			continue
		}
		r := ft.rate()
		if r <= 0 {
			continue
		}
		if slices.Contains(a.paths[flow], node) {
			total += r
		}
	}
	return total
}

// randomMergeTree draws 1–8 flows over a random sink-rooted tree, so flows
// share trunks of every length. Each path runs from its origin to the node
// adjacent to the sink. Some trials make one path visit a node twice.
func randomMergeTree(src *rng.Source) map[packet.NodeID][]packet.NodeID {
	nodes := 2 + src.Intn(40)
	parent := make([]int, nodes+1) // node i's parent lies in [0, i); 0 is the sink
	for i := 1; i <= nodes; i++ {
		parent[i] = src.Intn(i)
	}
	flows := 1 + src.Intn(8)
	if flows > nodes {
		flows = nodes
	}
	paths := make(map[packet.NodeID][]packet.NodeID, flows)
	origins := src.Perm(nodes)[:flows]
	for _, i := range origins {
		var path []packet.NodeID
		for n := i + 1; n != 0; n = parent[n] {
			path = append(path, packet.NodeID(n))
		}
		paths[packet.NodeID(i+1)] = path
	}
	if src.Intn(4) == 0 {
		origin := packet.NodeID(origins[0] + 1)
		path := paths[origin]
		again := path[src.Intn(len(path))]
		paths[origin] = slices.Insert(path, src.Intn(len(path)+1), again)
	}
	return paths
}

// TestPathAwareMatchesReference is the differential gate for the class-based
// PathAware: over random merge trees, a path visiting a node twice, unknown
// origins and flows observed once or never, every estimate must equal the
// reference's bit for bit.
func TestPathAwareMatchesReference(t *testing.T) {
	src := rng.New(20261017)
	for trial := 0; trial < 400; trial++ {
		tr := src.SplitIndexed("trial", trial)
		paths := randomMergeTree(tr)
		tau := float64(tr.Intn(3))
		meanDelay := 1 + 40*tr.Float64()
		k := 1 + tr.Intn(12)
		threshold := 0.02 + 0.5*tr.Float64()
		got, err := NewPathAware(tau, meanDelay, k, threshold, paths)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := newRefPathAware(tau, meanDelay, k, threshold, paths)

		// Observed origins: every known flow but possibly one, plus unknown
		// IDs inside and beyond the known range. Rates span both sides of
		// the Erlang threshold, and gaps of 0 make equal arrival times.
		var origins []packet.NodeID
		for origin := range paths {
			origins = append(origins, origin)
		}
		slices.Sort(origins)
		if len(origins) > 1 && tr.Intn(2) == 0 {
			origins = origins[1:] // this flow is never observed
		}
		origins = append(origins, 0, packet.NodeID(50+tr.Intn(60000)))
		once := origins[tr.Intn(len(origins))] // observed a single time
		z := 0.0
		meanGap := 0.05 + 20*tr.Float64()
		onceDone := false
		for i := 0; i < 300; i++ {
			if tr.Intn(5) > 0 {
				z += tr.Exponential(meanGap)
			}
			origin := origins[tr.Intn(len(origins))]
			if origin == once {
				if onceDone {
					continue
				}
				onceDone = true
			}
			o := Observation{ArrivalTime: z, Header: packet.Header{Origin: origin, HopCount: uint8(1 + tr.Intn(30))}}
			g, w := got.Estimate(o), want.Estimate(o)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d obs %d (origin %v, z=%v, paths %v): estimate %v, reference %v",
					trial, i, origin, z, paths, g, w)
			}
		}
	}
}

// figure1Paths returns the buffering path of every Figure 1 flow.
func figure1Paths(tb testing.TB) (map[packet.NodeID][]packet.NodeID, []packet.NodeID) {
	tb.Helper()
	topo, sources, err := topology.Figure1()
	if err != nil {
		tb.Fatal(err)
	}
	routes, err := routing.BuildTree(topo)
	if err != nil {
		tb.Fatal(err)
	}
	paths := make(map[packet.NodeID][]packet.NodeID, len(sources))
	for _, s := range sources {
		full, err := routes.Path(s)
		if err != nil {
			tb.Fatal(err)
		}
		paths[s] = full[:len(full)-1]
	}
	return paths, sources
}

// figure1Observations cycles through the Figure 1 flows with one arrival per
// time unit, fast enough that the shared trunk preempts.
func figure1Observations(sources []packet.NodeID, n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		out[i] = obs(float64(i), sources[i%len(sources)], 15)
	}
	return out
}

// TestPathAwareEstimateAllocationFree pins Estimate at zero allocations once
// the adversary is built, for known and unknown origins alike.
func TestPathAwareEstimateAllocationFree(t *testing.T) {
	paths, sources := figure1Paths(t)
	a, err := NewPathAware(1, 30, 10, 0.1, paths)
	if err != nil {
		t.Fatal(err)
	}
	observations := figure1Observations(sources, 4096)
	for _, o := range observations[:64] {
		a.Estimate(o)
	}
	i := 64
	if allocs := testing.AllocsPerRun(1000, func() {
		a.Estimate(observations[i%len(observations)])
		i++
	}); allocs != 0 {
		t.Errorf("Estimate allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Estimate(obs(float64(i), 9999, 12))
	}); allocs != 0 {
		t.Errorf("unknown-origin Estimate allocates %v per call, want 0", allocs)
	}
}

// BenchmarkPathAwareEstimate measures one path-aware estimate on Figure 1,
// the four-flow merge tree every figure runs on.
func BenchmarkPathAwareEstimate(b *testing.B) {
	paths, sources := figure1Paths(b)
	a, err := NewPathAware(1, 30, 10, 0.1, paths)
	if err != nil {
		b.Fatal(err)
	}
	observations := figure1Observations(sources, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := observations[i%len(observations)]
		o.ArrivalTime += float64(i / len(observations) * len(observations))
		benchSink = a.Estimate(o)
	}
}

var benchSink float64
