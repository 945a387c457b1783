package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"tempriv/internal/clock"
	"tempriv/internal/telemetry"
)

// near absorbs the float error a burn-rate division accumulates.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func newTestSLO(t *testing.T, reg *telemetry.Registry, clk *clock.Manual) *SLO {
	t.Helper()
	s, err := NewSLO(reg, SLOOptions{
		Name:      "cached_result",
		Objective: 0.99,
		Threshold: 50 * time.Millisecond,
		Clock:     clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSLOClassifiesAgainstThreshold(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := newManualClock()
	s := newTestSLO(t, reg, clk)
	s.Observe(10 * time.Millisecond)
	s.Observe(50 * time.Millisecond) // exactly at threshold counts as good
	s.Observe(51 * time.Millisecond)
	if got := reg.Counter("tempriv_slo_cached_result_good_total").Value(); got != 2 {
		t.Fatalf("good = %d, want 2", got)
	}
	if got := reg.Counter("tempriv_slo_cached_result_bad_total").Value(); got != 1 {
		t.Fatalf("bad = %d, want 1", got)
	}
}

func TestSLOBurnRates(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := newManualClock()
	s := newTestSLO(t, reg, clk)

	// 100 observations, 5 bad: bad fraction 0.05, error budget 0.01 →
	// burn 5.0 on both windows while everything is recent.
	for i := 0; i < 95; i++ {
		s.Observe(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		s.Observe(time.Second)
	}
	fast, slow := s.BurnRates()
	if !near(fast, 5.0) || !near(slow, 5.0) {
		t.Fatalf("burn = (%v, %v), want (5, 5)", fast, slow)
	}

	// 10 minutes later the bad burst has aged out of the 5m fast window
	// but still counts in the 1h slow window.
	clk.Advance(10 * time.Minute)
	for i := 0; i < 100; i++ {
		s.Observe(time.Millisecond)
	}
	fast, slow = s.BurnRates()
	if fast != 0 {
		t.Fatalf("fast burn = %v after the burst aged out, want 0", fast)
	}
	if !near(slow, 2.5) { // 5 bad / 200 total = 0.025 over budget 0.01
		t.Fatalf("slow burn = %v, want 2.5", slow)
	}

	// Two hours later everything has aged out of both windows; an idle
	// service burns nothing.
	clk.Advance(2 * time.Hour)
	fast, slow = s.BurnRates()
	if fast != 0 || slow != 0 {
		t.Fatalf("burn = (%v, %v) after all windows expired, want (0, 0)", fast, slow)
	}
}

func TestSLOSyncExportsGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := newManualClock()
	s := newTestSLO(t, reg, clk)
	for i := 0; i < 99; i++ {
		s.Observe(time.Millisecond)
	}
	s.Observe(time.Second)
	SLOSet{s}.Sync()
	if got := reg.Gauge("tempriv_slo_cached_result_burn_rate_fast").Value(); !near(got, 1.0) {
		t.Fatalf("fast burn gauge = %v, want 1.0", got)
	}
	if got := reg.Gauge("tempriv_slo_cached_result_burn_rate_slow").Value(); !near(got, 1.0) {
		t.Fatalf("slow burn gauge = %v, want 1.0", got)
	}
	if got := reg.Gauge("tempriv_slo_cached_result_objective").Value(); got != 0.99 {
		t.Fatalf("objective gauge = %v", got)
	}
	if got := reg.Gauge("tempriv_slo_cached_result_threshold_seconds").Value(); got != 0.05 {
		t.Fatalf("threshold gauge = %v", got)
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tempriv_slo_cached_result_good_total 99",
		"tempriv_slo_cached_result_bad_total 1",
		"tempriv_slo_cached_result_burn_rate_fast 0.99",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSLOOptionValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	bad := []SLOOptions{
		{Objective: 0.99, Threshold: time.Second},                   // no name
		{Name: "Bad-Name", Objective: 0.99, Threshold: time.Second}, // name chars
		{Name: "x", Objective: 0, Threshold: time.Second},           // objective low
		{Name: "x", Objective: 1, Threshold: time.Second},           // objective high
		{Name: "x", Objective: 0.9, Threshold: 0},                   // no threshold
	}
	for i, o := range bad {
		if _, err := NewSLO(reg, o); err == nil {
			t.Errorf("case %d: NewSLO(%+v) accepted invalid options", i, o)
		}
	}
}

func TestSLONilHandle(t *testing.T) {
	var s *SLO
	s.Observe(time.Second)
	s.Sync()
	if f, sl := s.BurnRates(); f != 0 || sl != 0 {
		t.Fatal("nil SLO reported burn")
	}
	if s.Name() != "" {
		t.Fatal("nil SLO reported a name")
	}
	SLOSet{nil, nil}.Sync() // must not panic
}

func TestSLONilRegistryStillWorks(t *testing.T) {
	s, err := NewSLO(nil, SLOOptions{
		Name: "x", Objective: 0.5, Threshold: time.Millisecond, Clock: newManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(time.Second)
	s.Observe(time.Microsecond)
	if fast, _ := s.BurnRates(); fast != 1.0 { // 0.5 bad fraction / 0.5 budget
		t.Fatalf("burn = %v, want 1.0", fast)
	}
}
