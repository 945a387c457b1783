package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"tempriv/internal/rng"
)

func TestEmptyRun(t *testing.T) {
	s := NewScheduler()
	if err := s.Run(); err != nil {
		t.Fatalf("Run on empty scheduler: %v", err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { order = append(order, at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want FIFO", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := NewScheduler()
	var seen []float64
	s.At(2, func() { seen = append(seen, s.Now()) })
	s.At(9, func() { seen = append(seen, s.Now()) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen[0] != 2 || seen[1] != 9 {
		t.Fatalf("clock inside callbacks: %v, want [2 9]", seen)
	}
	if s.Now() != 9 {
		t.Fatalf("final clock %v, want 9", s.Now())
	}
}

func TestAfterUsesRelativeDelay(t *testing.T) {
	s := NewScheduler()
	var at float64
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("After(5) from t=10 fired at %v, want 15", at)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("chained ticks fired %d times, want 100", count)
	}
	if s.Now() != 100 {
		t.Fatalf("clock %v, want 100", s.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(5, func() { fired = true })
	if !s.Cancel(tm) {
		t.Fatal("Cancel returned false for a pending timer")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if s.Cancel(tm) {
		t.Fatal("second Cancel returned true")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.At(1, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Cancel(tm) {
		t.Fatal("Cancel of fired timer returned true")
	}
}

func TestCancelFromCallback(t *testing.T) {
	s := NewScheduler()
	fired := false
	victim := s.At(10, func() { fired = true })
	s.At(5, func() { s.Cancel(victim) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("timer cancelled from an earlier event still fired")
	}
}

func TestReschedule(t *testing.T) {
	s := NewScheduler()
	var at float64
	tm := s.At(5, func() { at = s.Now() })
	if !s.Reschedule(tm, 20) {
		t.Fatal("Reschedule returned false for pending timer")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 20 {
		t.Fatalf("rescheduled timer fired at %v, want 20", at)
	}
}

func TestRescheduleEarlier(t *testing.T) {
	s := NewScheduler()
	var order []string
	tm := s.At(50, func() { order = append(order, "moved") })
	s.At(10, func() { order = append(order, "fixed") })
	s.At(1, func() { s.Reschedule(tm, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "moved" || order[1] != "fixed" {
		t.Fatalf("order = %v, want [moved fixed]", order)
	}
}

func TestRescheduleInactive(t *testing.T) {
	s := NewScheduler()
	tm := s.At(1, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Reschedule(tm, 10) {
		t.Fatal("Reschedule of fired timer returned true")
	}
}

// TestRescheduleRejectsNaN holds Reschedule to At's rule: a NaN time panics
// before anything changes, so the heap never holds a time that neither
// comparator orders. The timer stays pending at its old time and seq.
func TestRescheduleRejectsNaN(t *testing.T) {
	s := NewScheduler()
	var order []string
	tm := s.At(1, func() { order = append(order, "first") })
	s.At(1, func() { order = append(order, "second") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reschedule to NaN did not panic")
			}
		}()
		s.Reschedule(tm, math.NaN())
	}()
	if !tm.Active() || tm.When() != 1 || s.Pending() != 2 {
		t.Fatalf("after the rejected Reschedule: active=%v when=%v pending=%d, want true 1 2",
			tm.Active(), tm.When(), s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]: the timer lost its seq", order)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10, 11} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("RunUntil(5) fired %d events, want 3", len(fired))
	}
	if s.Now() != 5 {
		t.Fatalf("clock after RunUntil(5) = %v, want 5", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending after RunUntil = %d, want 2", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Fatalf("resume after RunUntil fired %d total, want 5", len(fired))
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(5, func() { fired = true })
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.At(float64(i), func() {
			count++
			if i == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("events after Stop: fired %d, want 3", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestAtInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	if !s.Step() {
		t.Fatal("Step returned false")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestAtNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	NewScheduler().At(1, nil)
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(float64(i), func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: for an arbitrary batch of schedule times, events fire in
// non-decreasing time order and the final clock equals the max time.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewScheduler()
		var fired []float64
		maxT := 0.0
		for _, r := range raw {
			at := float64(r) / 16
			if at > maxT {
				maxT = at
			}
			s.At(at, func() { fired = append(fired, at) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return s.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of timers fires exactly the
// complement.
func TestCancelSubsetProperty(t *testing.T) {
	src := rng.New(99)
	f := func(n uint8) bool {
		count := int(n%50) + 1
		s := NewScheduler()
		firedSet := make(map[int]bool)
		timers := make([]Timer, count)
		for i := 0; i < count; i++ {
			i := i
			timers[i] = s.At(float64(i%10), func() { firedSet[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < count; i++ {
			if src.Bernoulli(0.5) {
				cancelled[i] = true
				s.Cancel(timers[i])
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			if firedSet[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The exponential-interarrival chain below exercises the kernel the way the
// network simulator uses it, and checks the resulting event count against
// the analytic expectation.
func TestPoissonArrivalChain(t *testing.T) {
	s := NewScheduler()
	src := rng.New(7)
	const rate = 2.0
	const horizon = 10000.0
	count := 0
	var arrive func()
	arrive = func() {
		if s.Now() >= horizon {
			return
		}
		count++
		s.After(src.ExponentialRate(rate), arrive)
	}
	s.After(src.ExponentialRate(rate), arrive)
	if err := s.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	want := rate * horizon
	if math.Abs(float64(count)-want) > 4*math.Sqrt(want) {
		t.Fatalf("Poisson chain produced %d events, want ≈ %v", count, want)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		s.Step()
	}
}

// TestResetReplaysIdentically is the drain-and-rearm property: a scheduler
// that ran a full workload and was Reset must replay a fresh workload exactly
// as a brand-new scheduler would — same firing order, same clock, same
// counters — with stale Timer handles from before the reset gone inert.
func TestResetReplaysIdentically(t *testing.T) {
	workload := func(s *Scheduler, seed uint64) (order []float64, stale []Timer) {
		src := rng.New(seed)
		for i := 0; i < 40; i++ {
			at := 50 * src.Float64()
			stale = append(stale, s.At(at, func() { order = append(order, at) }))
		}
		// Cancel a deterministic subset so the free list sees churn.
		for i, tm := range stale {
			if i%3 == 0 {
				s.Cancel(tm)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatalf("workload run: %v", err)
		}
		return order, stale
	}

	fresh := NewScheduler()
	wantOrder, _ := workload(fresh, 42)
	wantNow, wantFired := fresh.Now(), fresh.Fired()

	reused := NewScheduler()
	_, stale := workload(reused, 7) // different seed: different churn pattern
	reused.Stop()
	reused.Reset()

	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 || reused.Stopped() {
		t.Fatalf("Reset left state behind: now=%v fired=%d pending=%d stopped=%v",
			reused.Now(), reused.Fired(), reused.Pending(), reused.Stopped())
	}
	gotOrder, _ := workload(reused, 42)
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("reset scheduler fired %d events, fresh fired %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("event %d fired at %v on reset scheduler, %v on fresh", i, gotOrder[i], wantOrder[i])
		}
	}
	if reused.Now() != wantNow || reused.Fired() != wantFired {
		t.Fatalf("reset scheduler clock/counter diverged: now %v vs %v, fired %d vs %d",
			reused.Now(), wantNow, reused.Fired(), wantFired)
	}

	// Handles issued before the reset are inert, even though their nodes were
	// recycled into the replay workload.
	for _, tm := range stale {
		if reused.Cancel(tm) || reused.Reschedule(tm, 99) {
			t.Fatal("stale pre-reset timer handle still live after Reset")
		}
	}
}

// TestResetMidRunDrainsQueue resets with timers still pending (the RunUntil
// case) and verifies the queued events are dropped, not replayed.
func TestResetMidRunDrainsQueue(t *testing.T) {
	s := NewScheduler()
	lateFired := false
	s.At(1, func() {})
	s.At(100, func() { lateFired = true })
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending before reset = %d, want 1", s.Pending())
	}
	s.Reset()
	if s.Pending() != 0 {
		t.Fatalf("pending after reset = %d, want 0", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if lateFired {
		t.Fatal("event queued before Reset fired after it")
	}
}

// BenchmarkResetReuse measures the steady-state cost of the reset cycle the
// engine pays between replicates: schedule a burst, run it, reset.
func BenchmarkResetReuse(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			s.At(float64(j), func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Reset()
	}
}
