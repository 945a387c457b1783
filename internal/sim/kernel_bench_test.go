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
// queue of 256 events, each op cancels one, reschedules one, schedules a
// replacement and fires the earliest.
func BenchmarkKernelChurn(b *testing.B) {
	delays := benchDelays(4096)
	s := NewScheduler()
	const depth = 256
	handles := make([]Timer, depth)
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
// paths at zero allocations: once the node pool and the FIFO's ring are
// warm, schedule/fire, schedule/cancel, reschedule and fixed-delay
// schedule/fire churn must not touch the heap allocator.
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
		t.Errorf("schedule+fire allocates %v per run, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		tm := s.After(1, noop)
		s.Cancel(tm)
	}); allocs != 0 {
		t.Errorf("schedule+cancel allocates %v per run, want 0", allocs)
	}

	tm := s.After(100, noop)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Reschedule(tm, s.Now()+100)
	}); allocs != 0 {
		t.Errorf("reschedule allocates %v per run, want 0", allocs)
	}
	s.Cancel(tm)

	// The fixed-delay FIFO: warm its ring with a burst, reset with entries
	// still pending (Reset keeps the ring), then push/fire beside a pending
	// heap timer so every Step merges the two queues.
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

// TestRecycledTimerHandleSafety pins the generation guard: a handle to a
// fired or cancelled timer must stay inert forever, even after its pooled
// node is recycled for an unrelated event — the double-fire/stale-packet
// hazard the timer pool must never reintroduce.
func TestRecycledTimerHandleSafety(t *testing.T) {
	s := NewScheduler()
	firedOld := 0
	old := s.At(1, func() { firedOld++ })
	if !s.Step() {
		t.Fatal("Step did not fire the first timer")
	}

	// The freed node is recycled for a new, unrelated timer.
	firedNew := 0
	fresh := s.At(2, func() { firedNew++ })
	if fresh.node != old.node {
		t.Fatal("pool did not recycle the fired timer's node (pooling broken)")
	}
	if old.Active() {
		t.Error("stale handle reports active after its node was recycled")
	}
	if s.Cancel(old) {
		t.Error("stale handle cancelled the recycled node's new timer")
	}
	if s.Reschedule(old, 50) {
		t.Error("stale handle rescheduled the recycled node's new timer")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if firedOld != 1 || firedNew != 1 {
		t.Fatalf("fired old=%d new=%d, want 1 and 1 (no double fire, no lost fire)", firedOld, firedNew)
	}

	// Same guard for a cancelled timer's handle.
	cancelled := s.At(s.Now()+1, noop)
	s.Cancel(cancelled)
	replacement := s.At(s.Now()+1, noop)
	if replacement.node != cancelled.node {
		t.Fatal("pool did not recycle the cancelled timer's node")
	}
	if cancelled.Active() || s.Cancel(cancelled) {
		t.Error("cancelled handle still operates on the recycled node")
	}
	if !replacement.Active() {
		t.Error("replacement timer inactive after stale-handle probing")
	}
	s.Cancel(replacement)
}
