package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// armed reports how many timers and sleepers m has armed.
func armed(m *Manual) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

func TestManualFiresDueTimersInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	late := m.NewTimer(3 * time.Second)
	early := m.NewTimer(time.Second)
	tie := m.NewTimer(3 * time.Second) // armed after late: fires after it
	never := m.NewTimer(time.Hour)

	m.Advance(500 * time.Millisecond)
	select {
	case <-early.C():
		t.Fatal("timer fired before its deadline")
	default:
	}

	m.Advance(2500 * time.Millisecond)
	if got := m.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now = %v after advancing 3s", got)
	}
	for i, tm := range []Timer{early, late, tie} {
		select {
		case at := <-tm.C():
			want := epoch.Add(time.Second)
			if i > 0 {
				want = epoch.Add(3 * time.Second)
			}
			if !at.Equal(want) {
				t.Errorf("timer %d fired at %v, want its deadline %v", i, at, want)
			}
		default:
			t.Fatalf("timer %d did not fire", i)
		}
	}
	if !never.Stop() {
		t.Fatal("Stop on an armed timer reported it disarmed")
	}
	if early.Stop() {
		t.Fatal("Stop on a fired timer reported it armed")
	}
}

func TestManualResetAndStop(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(time.Second)
	m.Advance(time.Second)
	// The fire was never received; Reset drops it and re-arms.
	if tm.Reset(2 * time.Second) {
		t.Fatal("Reset on a fired timer reported it armed")
	}
	m.Advance(time.Second)
	select {
	case <-tm.C():
		t.Fatal("stale or early fire after Reset")
	default:
	}
	m.Advance(time.Second)
	<-tm.C()

	tm.Reset(time.Second)
	tm.Stop()
	m.Advance(time.Hour)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}

	<-m.NewTimer(0).C() // a timer for no time has already fired
}

func TestManualSleepWakesOnAdvance(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan error, 1)
	go func() { done <- m.Sleep(context.Background(), 5*time.Second) }()

	m.BlockUntil(1)
	m.Advance(5*time.Second - time.Nanosecond)
	if n := armed(m); n != 1 {
		t.Fatalf("%d waits armed 1ns before the sleep's end, want the sleeper's", n)
	}
	m.Advance(time.Nanosecond)
	if err := <-done; err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}
}

func TestSleepEndsWithContext(t *testing.T) {
	for name, c := range map[string]Clock{"manual": NewManual(epoch), "real": Real} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Sleep on a canceled context = %v, want context.Canceled", name, err)
		}
	}

	m := NewManual(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Sleep(ctx, time.Hour) }()
	m.BlockUntil(1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep canceled mid-wait = %v, want context.Canceled", err)
	}
	if !m.Now().Equal(epoch) || armed(m) != 0 {
		t.Fatalf("canceling a sleeper left the clock at %v with %d waits armed", m.Now(), armed(m))
	}
}

func TestRealSleepWaits(t *testing.T) {
	start := Real.Now()
	if err := Real.Sleep(context.Background(), 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if waited := Real.Now().Sub(start); waited < 5*time.Millisecond {
		t.Fatalf("Real.Sleep returned after %v, want >= 5ms", waited)
	}
}
