package gateway

import (
	"testing"
	"time"

	"tempriv/internal/clock"
)

// testCooldown is the eject cooldown the health tests step through
// (temprivgw's -eject-cooldown default).
const testCooldown = 10 * time.Second

func newTestTracker(clk *clock.Manual) *healthTracker {
	return newHealthTracker(0.5, testCooldown, clk)
}

func TestHealthEjectsOnErrorRate(t *testing.T) {
	clk := newManualClock()
	h := newTestTracker(clk)
	var ejected []string
	h.onEject = func(id string) { ejected = append(ejected, id) }

	for i := 1; i < ejectMinSamples; i++ {
		h.observe("w1", true)
	}
	if !h.allow("w1") {
		t.Fatal("w1 ejected below ejectMinSamples")
	}
	h.observe("w1", true)
	if h.allow("w1") {
		t.Fatalf("w1 still allowed after %d/%d failures", ejectMinSamples, ejectMinSamples)
	}
	if len(ejected) != 1 || ejected[0] != "w1" {
		t.Fatalf("onEject calls = %v, want [w1]", ejected)
	}
	if h.ejectedCount() != 1 {
		t.Fatalf("ejectedCount = %d", h.ejectedCount())
	}
}

func TestHealthHalfOpenProbeRestores(t *testing.T) {
	clk := newManualClock()
	h := newTestTracker(clk)
	var restored []string
	h.onRestore = func(id string) { restored = append(restored, id) }
	for i := 0; i < ejectMinSamples; i++ {
		h.observe("w1", true)
	}
	if h.allow("w1") {
		t.Fatal("not ejected")
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.Advance(testCooldown - time.Nanosecond)
	if h.allow("w1") {
		t.Fatal("probe admitted before the cooldown elapsed")
	}
	clk.Advance(time.Nanosecond)
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
	clk := newManualClock()
	h := newTestTracker(clk)
	for i := 0; i < ejectMinSamples; i++ {
		h.observe("w1", true)
	}
	firstDown, down := h.ejectedSince("w1")
	if !down {
		t.Fatal("not down after ejection")
	}

	// Probe after cooldown fails: the cooldown refreshes but downSince
	// must not — otherwise the eject-handoff grace window never elapses
	// under a persistent partition.
	clk.Advance(testCooldown)
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
	clk := newManualClock()
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
