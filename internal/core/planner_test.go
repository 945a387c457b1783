package core

import (
	"math"
	"testing"
	"testing/quick"

	"tempriv/internal/packet"
	"tempriv/internal/queueing"
)

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewRateController(0, 0.1, 0.1, 30); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewRateController(10, 0.1, 0, 30); err == nil {
		t.Fatal("smoothing=0 accepted")
	}
	if _, err := NewRateController(10, 0.1, 1.5, 30); err == nil {
		t.Fatal("smoothing>1 accepted")
	}
	if _, err := NewRateController(10, 0.1, 0.1, 0); err == nil {
		t.Fatal("maxMean=0 accepted")
	}
	if _, err := NewRateController(10, 0, 0.1, 30); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}

func TestRateControllerEstimatesRate(t *testing.T) {
	c, err := NewRateController(10, 0.1, 0.2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rate() != 0 {
		t.Fatal("rate non-zero before observations")
	}
	if c.MeanDelay() != 1000 {
		t.Fatalf("pre-observation mean delay = %v, want maxMean", c.MeanDelay())
	}
	for i := 0; i <= 100; i++ {
		c.Observe(float64(i) * 4) // steady interarrival 4 → λ = 0.25
	}
	if math.Abs(c.Rate()-0.25) > 0.01 {
		t.Fatalf("estimated rate = %v, want 0.25", c.Rate())
	}
}

func TestRateControllerPlansErlangTarget(t *testing.T) {
	const k, alpha = 10, 0.1
	c, err := NewRateController(k, alpha, 0.2, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 200; i++ {
		c.Observe(float64(i) * 2) // λ = 0.5
	}
	mean := c.MeanDelay()
	// Planned utilization λ·mean must satisfy E(ρ, k) = α.
	loss, err := queueing.ErlangLoss(0.5*mean, k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-alpha) > 0.005 {
		t.Fatalf("planned loss = %v, want %v", loss, alpha)
	}
}

func TestRateControllerAdaptsToLoadIncrease(t *testing.T) {
	c, err := NewRateController(10, 0.1, 0.3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 10
		c.Observe(now)
	}
	slowMean := c.MeanDelay()
	for i := 0; i < 300; i++ {
		now += 1
		c.Observe(now)
	}
	fastMean := c.MeanDelay()
	if fastMean >= slowMean {
		t.Fatalf("mean delay did not shrink as load grew: %v → %v", slowMean, fastMean)
	}
	if ratio := slowMean / fastMean; math.Abs(ratio-10) > 1.5 {
		t.Fatalf("delay ratio = %v, want ≈ 10 (linear in λ)", ratio)
	}
}

func TestRateControllerCapsAtMaxMean(t *testing.T) {
	c, err := NewRateController(10, 0.1, 0.2, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 50; i++ {
		c.Observe(float64(i) * 1e6) // nearly idle
	}
	if got := c.MeanDelay(); got != 30 {
		t.Fatalf("idle mean delay = %v, want cap 30", got)
	}
}

func TestPlanTree(t *testing.T) {
	agg := map[packet.NodeID]float64{
		0: 1.0, // sink: excluded
		1: 1.0, // near sink: heavy
		5: 0.1, // leaf: light
		7: 0,   // idle node
	}
	plan, err := PlanTree(agg, 10, 0.1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan[0]; ok {
		t.Fatal("sink received a delay plan")
	}
	if plan[1] >= plan[5] {
		t.Fatalf("heavier node got longer delay: node1=%v node5=%v", plan[1], plan[5])
	}
	if plan[7] != 500 {
		t.Fatalf("idle node plan = %v, want maxMean", plan[7])
	}
	// Each planned mean must satisfy the Erlang target.
	for _, id := range []packet.NodeID{1, 5} {
		loss, err := queueing.ErlangLoss(agg[id]*plan[id], 10)
		if err != nil {
			t.Fatal(err)
		}
		if plan[id] < 500 && math.Abs(loss-0.1) > 1e-6 {
			t.Fatalf("node %d: loss %v, want 0.1", id, loss)
		}
	}
}

func TestPlanTreeValidation(t *testing.T) {
	if _, err := PlanTree(nil, 0, 0.1, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PlanTree(nil, 10, 0.1, -1); err == nil {
		t.Fatal("negative maxMean accepted")
	}
	if _, err := PlanTree(nil, 10, 2, 10); err == nil {
		t.Fatal("alpha=2 accepted")
	}
}

// Property: the controller's planned mean delay is always positive, finite
// and capped for arbitrary arrival patterns.
func TestControllerPlanProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		c, err := NewRateController(10, 0.1, 0.3, 100)
		if err != nil {
			return false
		}
		now := 0.0
		for _, g := range gaps {
			now += float64(g%50) + 0.1
			c.Observe(now)
		}
		m := c.MeanDelay()
		return m > 0 && m <= 100 && !math.IsNaN(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
