package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"

	"tempriv/internal/scenario"
)

// newRand returns the workload's random source for one purpose; equal
// seeds give equal streams.
func newRand(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^purpose))
}

// specKind is one slot of the serving workloads' mix.
type specKind struct {
	fig3       bool
	topology   string // figure1, line or grid (simulations)
	replicates int
	arq        bool
}

// mixDeck is one block of the serving mix: 4 fig3 experiments (2
// replicates, 2–3 interarrivals) and 12 RCAD simulations, one per
// topology and replicate count 1–4, a third of them over lossy links with
// ARQ. Specs are dealt from shuffled copies of the deck, so every block of
// 16 jobs has the same composition whatever the seed, and only the order
// and the parameters within a slot vary.
var mixDeck = func() []specKind {
	deck := []specKind{{fig3: true}, {fig3: true}, {fig3: true}, {fig3: true}}
	for t, topo := range []string{"figure1", "line", "grid"} {
		for r := 1; r <= 4; r++ {
			deck = append(deck, specKind{topology: topo, replicates: r, arq: (t+r)%3 == 0})
		}
	}
	return deck
}()

// specDealer deals the serving mix. Each spec gets its own seed, so no
// two dealt specs are equal.
type specDealer struct {
	r        *rand.Rand
	hand     []specKind
	nextSeed uint64
	sizes    map[specKind]*sizeSeq
}

func newSpecDealer(r *rand.Rand, firstSeed uint64) *specDealer {
	return &specDealer{r: r, nextSeed: firstSeed, sizes: map[specKind]*sizeSeq{}}
}

// deal returns the next n specs.
func (d *specDealer) deal(n int) []scenario.Spec {
	out := make([]scenario.Spec, n)
	for i := range out {
		if len(d.hand) == 0 {
			d.hand = append([]specKind(nil), mixDeck...)
			d.r.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
		}
		k := d.hand[0]
		if d.sizes[k] == nil {
			d.sizes[k] = newSizeSeq(d.r)
		}
		out[i] = smallSpec(d.r, k, d.sizes[k].next(), d.nextSeed)
		d.hand = d.hand[1:]
		d.nextSeed++
	}
	return out
}

// sizeSteps are the steps of sizeSeq's recurrences, one irrational
// number per size parameter, so the parameters do not move in step.
var sizeSteps = [...]float64{0.6180339887498949, 0.41421356237309515, 0.7320508075688772, 0.2360679774997898, 0.6457513110645907}

// sizeSeq stratifies one slot's size parameters across its deals. Point
// n of parameter j is frac(start_j + n·step_j): any run of consecutive
// points covers [0, 1) almost evenly, so a run of the workload deals
// nearly the same spread of job sizes whatever starts its seed picked,
// and the seed cannot shift the latency distribution by drawing many
// large or many small jobs.
type sizeSeq struct {
	start [len(sizeSteps)]float64
	n     int
}

func newSizeSeq(r *rand.Rand) *sizeSeq {
	s := &sizeSeq{}
	for j := range s.start {
		s.start[j] = r.Float64()
	}
	return s
}

// next returns the next point: one value in [0, 1) per size parameter.
func (s *sizeSeq) next() [len(sizeSteps)]float64 {
	var u [len(sizeSteps)]float64
	for j := range u {
		_, u[j] = math.Modf(s.start[j] + float64(s.n)*sizeSteps[j])
	}
	s.n++
	return u
}

// smallSpec builds one slot's spec with sizes u. A spec costs the engine
// about 5–30 ms of CPU on the calibration machine in its fast state, 15
// ms on average.
func smallSpec(r *rand.Rand, k specKind, u [len(sizeSteps)]float64, seed uint64) scenario.Spec {
	in := func(j, lo, n int) int { return lo + int(u[j]*float64(n)) }
	if k.fig3 {
		ias := []float64{2, 4, 6, 8, 10, 12}
		r.Shuffle(len(ias), func(i, j int) { ias[i], ias[j] = ias[j], ias[i] })
		return scenario.Spec{Version: scenario.CurrentVersion, Experiment: &scenario.ExperimentSpec{
			ID: "fig3", Seed: seed, Packets: 50, Interarrivals: ias[:in(0, 2, 2)], Replicates: 2,
		}}
	}
	sim := &scenario.SimulationSpec{
		Policy:     "rcad",
		Seed:       seed,
		Replicates: k.replicates,
		Traffic:    scenario.TrafficSpec{Kind: "periodic", Interval: float64(in(0, 2, 4))},
	}
	// Packet counts even out the topologies' per-packet cost: figure1
	// has four sources, line and grid one.
	switch k.topology {
	case "figure1":
		sim.Topology = scenario.TopologySpec{Kind: "figure1"}
		sim.Packets = in(1, 150, 101)
	case "line":
		sim.Topology = scenario.TopologySpec{Kind: "line", Hops: in(2, 8, 13)}
		sim.Packets = in(1, 500, 301)
	default:
		sim.Topology = scenario.TopologySpec{Kind: "grid", Width: in(2, 3, 3), Height: in(3, 3, 3)}
		sim.Packets = in(1, 1000, 501)
	}
	if k.arq {
		sim.Channel = &scenario.ChannelSpec{LossP: float64(in(4, 5, 11)) / 100}
		sim.ARQ = &scenario.ARQSpec{}
	}
	return scenario.Spec{Version: scenario.CurrentVersion, Simulation: sim}
}

// specBodies encodes specs as the JSON documents the daemons receive.
func specBodies(specs []scenario.Spec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
