package gateway

import (
	"testing"
	"time"
)

func newTestTracker(clk *fakeClock) *healthTracker {
	// window 8, threshold 0.5, minSamples 3, cooldown 10s
	return newHealthTracker(8, 0.5, 3, 10*time.Second, clk.Now)
}

func TestHealthEjectsOnErrorRate(t *testing.T) {
	clk := newFakeClock()
	h := newTestTracker(clk)
	var ejected []string
	h.onEject = func(id string) { ejected = append(ejected, id) }

	h.observe("w1", true)
	h.observe("w1", true)
	if !h.allow("w1") {
		t.Fatal("w1 ejected below minSamples")
	}
	h.observe("w1", true)
	if h.allow("w1") {
		t.Fatal("w1 still allowed after 3/3 failures")
	}
	if len(ejected) != 1 || ejected[0] != "w1" {
		t.Fatalf("onEject calls = %v, want [w1]", ejected)
	}
	if h.ejectedCount() != 1 {
		t.Fatalf("ejectedCount = %d", h.ejectedCount())
	}
}

func TestHealthHalfOpenProbeRestores(t *testing.T) {
	clk := newFakeClock()
	h := newTestTracker(clk)
	var restored []string
	h.onRestore = func(id string) { restored = append(restored, id) }
	for i := 0; i < 3; i++ {
		h.observe("w1", true)
	}
	if h.allow("w1") {
		t.Fatal("not ejected")
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.Advance(10 * time.Second)
	if !h.allow("w1") {
		t.Fatal("probe not admitted after cooldown")
	}
	if h.allow("w1") {
		t.Fatal("second request admitted while probe is in flight")
	}

	// The probe succeeds: worker restored, window reset.
	h.observe("w1", false)
	if !h.allow("w1") {
		t.Fatal("not restored after successful probe")
	}
	if len(restored) != 1 || restored[0] != "w1" {
		t.Fatalf("onRestore calls = %v, want [w1]", restored)
	}
	if _, down := h.ejectedSince("w1"); down {
		t.Fatal("ejectedSince still reports down after restore")
	}
}

func TestHealthFailedProbeKeepsDownSince(t *testing.T) {
	clk := newFakeClock()
	h := newTestTracker(clk)
	for i := 0; i < 3; i++ {
		h.observe("w1", true)
	}
	firstDown, down := h.ejectedSince("w1")
	if !down {
		t.Fatal("not down after ejection")
	}

	// Probe after cooldown fails: the cooldown refreshes but downSince
	// must not — otherwise the eject-handoff grace window never elapses
	// under a persistent partition.
	clk.Advance(10 * time.Second)
	if !h.allow("w1") {
		t.Fatal("probe not admitted")
	}
	h.observe("w1", true)
	if h.allow("w1") {
		t.Fatal("allowed right after failed probe")
	}
	since, down := h.ejectedSince("w1")
	if !down {
		t.Fatal("not down after failed probe")
	}
	if !since.Equal(firstDown) {
		t.Fatalf("downSince moved from %v to %v across a failed probe", firstDown, since)
	}
}

func TestHealthBackpressureIsNotFailure(t *testing.T) {
	clk := newFakeClock()
	h := newTestTracker(clk)
	for i := 0; i < 10; i++ {
		h.observe("w1", false)
		h.observeBackpressure("w1", 2*time.Second)
	}
	if !h.allow("w1") {
		t.Fatal("backpressure alone ejected the worker")
	}
	remain, busy := h.backpressured("w1")
	if !busy || remain <= 0 {
		t.Fatalf("backpressured = (%v, %v), want active window", remain, busy)
	}
	clk.Advance(3 * time.Second)
	if _, busy := h.backpressured("w1"); busy {
		t.Fatal("backpressure window did not expire")
	}
}
