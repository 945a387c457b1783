package tempriv_test

import (
	"fmt"
	"log"

	"tempriv"
)

// Example runs the paper's three buffering cases on a 15-hop line and
// prints the baseline adversary's estimation error for each — the shape of
// Figure 2(a) in eight lines of code.
func Example() {
	topo, err := tempriv.NewLineTopology(15)
	if err != nil {
		log.Fatal(err)
	}
	traffic, err := tempriv.PeriodicTraffic(2)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := tempriv.ExponentialDelay(30)
	if err != nil {
		log.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		policy    tempriv.PolicyKind
		delay     tempriv.DelayDistribution
		knownMean float64
	}{
		{"no-delay", tempriv.PolicyForward, nil, 0},
		{"unlimited", tempriv.PolicyUnlimited, dist, 30},
		{"rcad", tempriv.PolicyRCAD, dist, 30},
	} {
		res, err := tempriv.Run(tempriv.Config{
			Topology: topo,
			Sources:  []tempriv.Source{{Node: 15, Process: traffic, Count: 500}},
			Policy:   c.policy,
			Delay:    c.delay,
			Seed:     1,
		})
		if err != nil {
			log.Fatal(err)
		}
		adv, err := tempriv.NewBaselineAdversary(1, c.knownMean)
		if err != nil {
			log.Fatal(err)
		}
		mse, err := tempriv.ScoreAdversary(adv, res)
		if err != nil {
			log.Fatal(err)
		}
		// Bucket the MSE so the example output is robust to expected
		// statistical variation across Go versions.
		bucket := "none"
		switch {
		case mse.Value() > 20000:
			bucket = "high"
		case mse.Value() > 5000:
			bucket = "moderate"
		}
		fmt.Printf("%s: adversary error %s\n", c.name, bucket)
	}
	// Output:
	// no-delay: adversary error none
	// unlimited: adversary error moderate
	// rcad: adversary error high
}

// ExampleErlangLoss plans a node's mean buffering delay from the §4 design
// rule: pick µ so that a 10-slot buffer overflows 10% of the time.
func ExampleErlangLoss() {
	loss, err := tempriv.ErlangLoss(15, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("E(15, 10) = %.3f\n", loss)

	mu, err := tempriv.PlanMu(0.5, 10, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned mean delay 1/µ = %.1f\n", 1/mu)
	// Output:
	// E(15, 10) = 0.410
	// planned mean delay 1/µ = 15.0
}

// ExamplePlanDelays provisions per-node delays across a merge tree: nodes
// nearer the sink carry more flows and get shorter delays.
func ExamplePlanDelays() {
	topo, sources, err := tempriv.NewMergeTreeTopology([]int{5, 6}, 2)
	if err != nil {
		log.Fatal(err)
	}
	rates := map[tempriv.NodeID]float64{sources[0]: 0.5, sources[1]: 0.5}
	plan, err := tempriv.PlanDelays(topo, rates, 10, 0.1, 120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trunk 1/µ = %.1f, leaf 1/µ = %.1f\n", plan[1], plan[sources[0]])
	// Output:
	// trunk 1/µ = 7.5, leaf 1/µ = 15.0
}

// ExampleTimedMixPolicy installs a §6 timed mix on every node of a 3-hop
// line. Each node flushes its whole buffer every 30 time units, so every
// message is delivered, in batches, and waits at most one interval per hop.
func ExampleTimedMixPolicy() {
	topo, err := tempriv.NewLineTopology(3)
	if err != nil {
		log.Fatal(err)
	}
	traffic, err := tempriv.PeriodicTraffic(5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tempriv.Run(tempriv.Config{
		Topology:     topo,
		Sources:      []tempriv.Source{{Node: 3, Process: traffic, Count: 100}},
		Policy:       tempriv.PolicyCustom,
		CustomPolicy: tempriv.TimedMixPolicy(30),
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	flow := res.Flows[3]
	fmt.Printf("delivered %d/%d\n", flow.Delivered, flow.Created)
	fmt.Printf("max latency within 3 flush intervals: %v\n", flow.Latency.Max <= 3*(30+1))
	// Output:
	// delivered 100/100
	// max latency within 3 flush intervals: true
}
