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

// owned returns a disarmed owned event that runs fn.
func owned(fn func()) *Event {
	ev := new(Event)
	ev.Bind(HandlerFunc(fn))
	return ev
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev := owned(func() { fired = true })
	s.Arm(ev, 5)
	if !s.Disarm(ev) {
		t.Fatal("Disarm returned false for a queued event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("disarmed event fired")
	}
	if s.Disarm(ev) {
		t.Fatal("second Disarm returned true")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	ev := owned(func() {})
	s.Arm(ev, 1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev.Queued() || s.Disarm(ev) {
		t.Fatal("Disarm of a fired event returned true")
	}
}

func TestCancelFromCallback(t *testing.T) {
	s := NewScheduler()
	fired := false
	victim := owned(func() { fired = true })
	s.Arm(victim, 10)
	s.At(5, func() { s.Disarm(victim) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event disarmed from an earlier event still fired")
	}
}

// reschedule moves a queued event, as the kernel's callers do: Disarm, then
// Arm with a fresh sequence number. It reports whether ev was queued.
func reschedule(s *Scheduler, ev *Event, when float64) bool {
	if !s.Disarm(ev) {
		return false
	}
	s.Arm(ev, when)
	return true
}

func TestReschedule(t *testing.T) {
	s := NewScheduler()
	var at float64
	ev := owned(func() { at = s.Now() })
	s.Arm(ev, 5)
	if !reschedule(s, ev, 20) {
		t.Fatal("reschedule returned false for a queued event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 20 {
		t.Fatalf("rescheduled event fired at %v, want 20", at)
	}
}

func TestRescheduleEarlier(t *testing.T) {
	s := NewScheduler()
	var order []string
	ev := owned(func() { order = append(order, "moved") })
	s.Arm(ev, 50)
	s.At(10, func() { order = append(order, "fixed") })
	s.At(1, func() { reschedule(s, ev, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "moved" || order[1] != "fixed" {
		t.Fatalf("order = %v, want [moved fixed]", order)
	}
}

// TestRescheduleInactive: a fired event is not queued, so moving it is a
// no-op; arming it again is how its owner schedules it anew.
func TestRescheduleInactive(t *testing.T) {
	s := NewScheduler()
	n := 0
	ev := owned(func() { n++ })
	s.Arm(ev, 1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reschedule(s, ev, 10) || s.Pending() != 0 {
		t.Fatal("reschedule of a fired event queued it again")
	}
	s.Arm(ev, 10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 || s.Now() != 10 {
		t.Fatalf("re-armed event: fired %d times, clock %v; want 2 and 10", n, s.Now())
	}
}

// TestRescheduleRejectsNaN holds Arm to At's rule: a NaN time panics before
// anything is queued, so the heap never holds a time that neither comparator
// orders. Arming a queued event panics too, so a reschedule must disarm
// first; the queued event keeps its time and seq.
func TestRescheduleRejectsNaN(t *testing.T) {
	s := NewScheduler()
	var order []string
	ev := owned(func() { order = append(order, "first") })
	s.Arm(ev, 1)
	s.At(1, func() { order = append(order, "second") })
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Arm of a queued event", func() { s.Arm(ev, 0.5) })
	mustPanic("Arm at NaN", func() { s.Arm(owned(func() {}), math.NaN()) })
	mustPanic("Arm with no handler", func() { s.Arm(new(Event), 1) })
	if !ev.Queued() || s.Pending() != 2 {
		t.Fatalf("after the rejected Arms: queued=%v pending=%d, want true 2", ev.Queued(), s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]: the event lost its seq", order)
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

// Property: disarming a random subset of owned events fires exactly the
// complement.
func TestCancelSubsetProperty(t *testing.T) {
	src := rng.New(99)
	f := func(n uint8) bool {
		count := int(n%50) + 1
		s := NewScheduler()
		firedSet := make(map[int]bool)
		events := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = owned(func() { firedSet[i] = true })
			s.Arm(events[i], float64(i%10))
		}
		cancelled := make(map[int]bool)
		for i := 0; i < count; i++ {
			if src.Bernoulli(0.5) {
				cancelled[i] = true
				s.Disarm(events[i])
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
// counters — with the events still queued at the reset left disarmed.
func TestResetReplaysIdentically(t *testing.T) {
	workload := func(s *Scheduler, seed uint64) (order []float64, events []*Event) {
		src := rng.New(seed)
		for i := 0; i < 40; i++ {
			at := 50 * src.Float64()
			fn := func() { order = append(order, at) }
			if i%2 == 0 {
				s.At(at, fn) // pooled events see churn on the free list
				continue
			}
			ev := owned(fn)
			s.Arm(ev, at)
			events = append(events, ev)
		}
		// Disarm a deterministic subset of the owned ones.
		for i, ev := range events {
			if i%3 == 0 {
				s.Disarm(ev)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatalf("workload run: %v", err)
		}
		return order, events
	}

	fresh := NewScheduler()
	wantOrder, _ := workload(fresh, 42)
	wantNow, wantFired := fresh.Now(), fresh.Fired()

	reused := NewScheduler()
	_, stale := workload(reused, 7) // different seed: different churn pattern
	// Queue the stale events again, then reset with them pending.
	for _, ev := range stale {
		reused.Arm(ev, reused.Now()+1)
	}
	reused.Stop()
	reused.Reset()

	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 || reused.Stopped() {
		t.Fatalf("Reset left state behind: now=%v fired=%d pending=%d stopped=%v",
			reused.Now(), reused.Fired(), reused.Pending(), reused.Stopped())
	}
	for _, ev := range stale {
		if ev.Queued() || reused.Disarm(ev) {
			t.Fatal("an owned event queued before Reset is still queued after it")
		}
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
