package sim

// Microbenchmarks for the event kernel's hot paths, each paired with its
// pre-refactor container/heap baseline (legacy_kernel_test.go) so the
// speedup is measurable at any commit:
//
//	go test -bench 'Kernel|Legacy' -benchmem ./internal/sim
//
// The Kernel variants must report 0 B/op in steady state — enforced by
// TestKernelSteadyStateAllocationFree below, which CI runs on every push.

import (
	"testing"

	"tempriv/internal/rng"
)

var noop = func() {}

// BenchmarkKernelScheduleFire measures the tightest loop a simulation
// drives: schedule one event, fire it.
func BenchmarkKernelScheduleFire(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, noop)
		s.Step()
	}
}

// BenchmarkLegacyScheduleFire is the container/heap baseline for
// BenchmarkKernelScheduleFire.
func BenchmarkLegacyScheduleFire(b *testing.B) {
	s := newLegacyScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, noop)
		s.Step()
	}
}

// benchDelays returns deterministic pseudo-random delays for the drain and
// churn benchmarks, shared by both kernels.
func benchDelays(n int) []float64 {
	src := rng.New(42)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(src.Intn(1000)) / 16
	}
	return out
}

const benchQueueDepth = 1024

// BenchmarkKernelScheduleDrain measures heap behaviour at depth: fill the
// queue with 1024 scattered events, then drain it. Reported per event.
func BenchmarkKernelScheduleDrain(b *testing.B) {
	delays := benchDelays(benchQueueDepth)
	s := NewScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range delays {
			s.After(d, noop)
		}
		for s.Step() {
		}
	}
	b.ReportMetric(float64(b.N*benchQueueDepth)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLegacyScheduleDrain is the container/heap baseline for
// BenchmarkKernelScheduleDrain.
func BenchmarkLegacyScheduleDrain(b *testing.B) {
	delays := benchDelays(benchQueueDepth)
	s := newLegacyScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range delays {
			s.After(d, noop)
		}
		for s.Step() {
		}
	}
	b.ReportMetric(float64(b.N*benchQueueDepth)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelChurn measures the ARQ/buffer pattern: against a standing
// queue of 256 owned events, each op disarms one, reschedules one (Disarm,
// then Arm), arms the first again as a replacement and fires the earliest.
func BenchmarkKernelChurn(b *testing.B) {
	delays := benchDelays(4096)
	s := NewScheduler()
	const depth = 256
	events := make([]Event, depth)
	for i := range events {
		events[i].Bind(HandlerFunc(noop))
		s.Arm(&events[i], s.Now()+delays[i]+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := delays[i%len(delays)] + 1
		j := i % depth
		s.Disarm(&events[j])
		if next := &events[(j+1)%depth]; s.Disarm(next) {
			s.Arm(next, s.Now()+d)
		}
		s.Arm(&events[j], s.Now()+d)
		s.Step()
	}
	b.StopTimer()
	for s.Step() {
	}
}

// BenchmarkLegacyChurn is the container/heap baseline for
// BenchmarkKernelChurn.
func BenchmarkLegacyChurn(b *testing.B) {
	delays := benchDelays(4096)
	s := newLegacyScheduler()
	const depth = 256
	handles := make([]*legacyTimer, depth)
	for i := range handles {
		handles[i] = s.After(delays[i]+1, noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := delays[i%len(delays)] + 1
		j := i % depth
		s.Cancel(handles[j])
		s.Reschedule(handles[(j+1)%depth], s.Now()+d)
		handles[j] = s.After(d, noop)
		s.Step()
	}
	b.StopTimer()
	for s.Step() {
	}
}

// TestKernelSteadyStateAllocationFree pins the kernel's steady-state hot
// paths at zero allocations: once the event pool and the FIFO's ring are
// warm, pooled schedule/fire, owned arm/fire, arm/disarm and reschedule, and
// fixed-delay schedule/fire churn must not touch the heap allocator.
// This is the regression gate behind the refactor's "engine gets cheap"
// claim — a closure, boxing or pool regression fails it immediately.
func TestKernelSteadyStateAllocationFree(t *testing.T) {
	s := NewScheduler()
	// Warm the pool and the queue's backing array.
	for i := 0; i < 64; i++ {
		s.After(1, noop)
	}
	for s.Step() {
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, noop)
		s.Step()
	}); allocs != 0 {
		t.Errorf("pooled schedule+fire allocates %v per run, want 0", allocs)
	}

	var ev Event
	ev.Bind(HandlerFunc(noop))
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Arm(&ev, s.Now()+1)
		s.Step()
	}); allocs != 0 {
		t.Errorf("owned arm+fire allocates %v per run, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		s.Arm(&ev, s.Now()+1)
		s.Disarm(&ev)
	}); allocs != 0 {
		t.Errorf("owned arm+disarm allocates %v per run, want 0", allocs)
	}

	s.Arm(&ev, s.Now()+100)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Disarm(&ev)
		s.Arm(&ev, s.Now()+100)
	}); allocs != 0 {
		t.Errorf("owned reschedule allocates %v per run, want 0", allocs)
	}
	s.Disarm(&ev)

	// The fixed-delay FIFO: warm its ring with a burst, reset with entries
	// still pending (Reset keeps the ring), then push/fire beside a pending
	// heap event so every Step merges the two queues.
	for i := 0; i < 64; i++ {
		s.AfterFixed(1, noop)
	}
	s.Reset()
	s.After(1e9, noop)
	for i := 0; i < 8; i++ {
		s.AfterFixed(1, noop)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.AfterFixed(1, noop)
		s.Step()
	}); allocs != 0 {
		t.Errorf("fixed-delay schedule+fire allocates %v per run, want 0", allocs)
	}
}

// TestOwnedEventLifecycle pins what an owned event's owner relies on: a
// disarmed event never fires, an event re-armed from its own handler fires
// again, and Reset leaves every owned event disarmed, so none of them can
// fire into the next run.
func TestOwnedEventLifecycle(t *testing.T) {
	s := NewScheduler()

	fired := 0
	disarmed := owned(func() { fired++ })
	s.Arm(disarmed, 3)
	s.At(1, func() {
		if !s.Disarm(disarmed) {
			t.Error("Disarm of a queued event returned false")
		}
	})
	var ticks []float64
	var tick *Event
	tick = owned(func() {
		ticks = append(ticks, s.Now())
		if tick.Queued() {
			t.Error("an event is still queued while its handler runs")
		}
		if len(ticks) < 3 {
			s.Arm(tick, s.Now()+2)
		}
	})
	s.Arm(tick, 2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("disarmed event fired %d times", fired)
	}
	if len(ticks) != 3 || ticks[0] != 2 || ticks[1] != 4 || ticks[2] != 6 {
		t.Errorf("self-re-arming event fired at %v, want [2 4 6]", ticks)
	}

	// Reset with owned events queued, one of them periodic: all of them come
	// out disarmed, the queue is empty, and none fires in the next run.
	evs := []*Event{owned(func() { fired++ }), owned(func() { fired++ })}
	for i, ev := range evs {
		s.Arm(ev, s.Now()+float64(i+1))
	}
	p := s.Every(0.5, func(float64) { fired++ })
	s.Reset()
	for i, ev := range evs {
		if ev.Queued() || s.Disarm(ev) {
			t.Errorf("owned event %d still queued after Reset", i)
		}
	}
	if p.Active() || s.Pending() != 0 {
		t.Errorf("after Reset: probe active=%v, pending=%d; want false, 0", p.Active(), s.Pending())
	}
	s.At(10, noop)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("events queued before Reset fired %d times after it", fired)
	}
	// A disarmed event can be armed again after the reset.
	s.Arm(evs[0], s.Now()+1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("re-armed event fired %d times after Reset, want 1", fired)
	}
}
