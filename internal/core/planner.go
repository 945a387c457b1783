// Package core implements the §4 planner behind RCAD, Rate-Controlled
// Adaptive Delaying: the RateController that re-plans one node's mean
// buffering delay from its observed arrival rate, and PlanTree, the same
// Erlang-loss rule applied to a whole routing tree.
//
// RCAD itself (§5) is a buffering policy rather than a type of its own: a
// buffer.Preemptive of k slots (DefaultCapacity by default) that, when an
// arrival finds it full, transmits a victim — by default the packet with
// the shortest remaining delay — instead of dropping anything, which
// "automatically adjusts the effective µ based on buffer state". The
// network layer feeds it each packet's delay, drawn from the node's
// distribution (exponential with mean 1/µ, per §3.2's max-entropy
// argument) or, when rate control is on, from a RateController's plan,
// which holds the expected preemption rate at a target α. That realises
// the paper's observation that nodes near the sink (higher λ) must use
// shorter delays to keep a fixed buffer-overflow probability.
package core

import (
	"fmt"
	"math"

	"tempriv/internal/packet"
	"tempriv/internal/queueing"
)

// DefaultCapacity is the paper's buffer size: 10 packets, approximating the
// buffers available on Mica-2 motes (§5.3).
const DefaultCapacity = 10

// RateController plans a node's mean buffering delay from its observed
// arrival rate so that the expected buffer-overflow (preemption) probability
// stays at a target α (§4):
//
//	µ = λ̂ / ρ*   where   E(ρ*, k) = α.
//
// Because ρ* is fixed by (k, α), the planned mean delay 1/µ shrinks linearly
// as the arrival rate grows — exactly the near-sink adaptation the paper
// calls out.
type RateController struct {
	capacity  int
	rhoStar   float64
	smoothing float64
	maxMean   float64

	haveLast bool
	last     float64
	ewmaGap  float64
}

// NewRateController returns a controller for a buffer of k slots targeting
// loss probability alpha. smoothing ∈ (0, 1] is the EWMA weight given to
// each new interarrival observation; maxMean caps the planned mean delay
// (the value used until enough arrivals have been observed, and the privacy
// budget at very low rates).
func NewRateController(k int, alpha, smoothing, maxMean float64) (*RateController, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: controller needs k >= 1, got %d", k)
	}
	if smoothing <= 0 || smoothing > 1 || math.IsNaN(smoothing) {
		return nil, fmt.Errorf("core: smoothing must lie in (0,1], got %v", smoothing)
	}
	if maxMean <= 0 || math.IsNaN(maxMean) || math.IsInf(maxMean, 0) {
		return nil, fmt.Errorf("core: max mean delay must be positive and finite, got %v", maxMean)
	}
	rhoStar, err := queueing.SolveRho(k, alpha)
	if err != nil {
		return nil, fmt.Errorf("core: planning utilization: %w", err)
	}
	return &RateController{capacity: k, rhoStar: rhoStar, smoothing: smoothing, maxMean: maxMean}, nil
}

// Reset clears the controller's observation state — the EWMA rate estimate
// restarts from "nothing observed" — and re-caps the planned mean delay at
// maxMean, restoring the as-constructed plan. The Erlang design point
// (capacity, target loss, ρ*) is configuration, not state, and is kept.
func (c *RateController) Reset(maxMean float64) {
	c.haveLast = false
	c.last = 0
	c.ewmaGap = 0
	c.maxMean = maxMean
}

// Observe records a packet arrival at time now, updating the rate estimate.
func (c *RateController) Observe(now float64) {
	if !c.haveLast {
		c.haveLast = true
		c.last = now
		return
	}
	gap := now - c.last
	c.last = now
	if gap < 0 {
		return // defensive: simulated time never decreases
	}
	if c.ewmaGap == 0 {
		c.ewmaGap = gap
		return
	}
	c.ewmaGap += c.smoothing * (gap - c.ewmaGap)
}

// Rate returns the estimated arrival rate λ̂, or 0 before two arrivals have
// been observed.
func (c *RateController) Rate() float64 {
	if c.ewmaGap <= 0 {
		return 0
	}
	return 1 / c.ewmaGap
}

// MeanDelay returns the planned mean buffering delay min(ρ*/λ̂, maxMean).
func (c *RateController) MeanDelay() float64 {
	rate := c.Rate()
	if rate <= 0 {
		return c.maxMean
	}
	mean := c.rhoStar / rate
	if mean > c.maxMean {
		return c.maxMean
	}
	return mean
}

// TargetUtilization returns ρ*, the utilization at which the Erlang loss
// equals the configured target.
func (c *RateController) TargetUtilization() float64 { return c.rhoStar }

// PlanTree computes, for every node in a routing tree, the mean buffering
// delay that holds the Erlang loss at alpha given per-source packet rates —
// the §4 network-wide planning rule made executable. It returns the planned
// mean delay 1/µᵢ for each node that carries traffic, capped at maxMean.
// The sink (which does not buffer) is excluded.
func PlanTree(agg map[packet.NodeID]float64, k int, alpha, maxMean float64) (map[packet.NodeID]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: PlanTree needs k >= 1, got %d", k)
	}
	if maxMean <= 0 || math.IsNaN(maxMean) || math.IsInf(maxMean, 0) {
		return nil, fmt.Errorf("core: max mean delay must be positive and finite, got %v", maxMean)
	}
	rhoStar, err := queueing.SolveRho(k, alpha)
	if err != nil {
		return nil, fmt.Errorf("core: planning utilization: %w", err)
	}
	plan := make(map[packet.NodeID]float64, len(agg))
	for id, lambda := range agg {
		if id == 0 { // the sink does not buffer
			continue
		}
		if lambda <= 0 {
			plan[id] = maxMean
			continue
		}
		mean := rhoStar / lambda
		if mean > maxMean {
			mean = maxMean
		}
		plan[id] = mean
	}
	return plan, nil
}
