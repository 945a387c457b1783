// Package clock is the serving stack's one time seam. The gateway, the
// membership registry and its lease client, the result cache, the tracer
// and its SLOs, and the chaos transport read time and wait on it only
// through a Clock, so a test steps a Manual clock through cooldowns,
// leases, keepalives and injected latency instead of waiting on the wall.
// A nil Clock in any of their configs means Real.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock tells the time and waits on it.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a timer that delivers the time on its channel once
	// d has elapsed.
	NewTimer(d time.Duration) Timer
	// Sleep waits until d has elapsed or ctx is done, whichever comes
	// first. It returns ctx's error if ctx ended the wait.
	Sleep(ctx context.Context, d time.Duration) error
}

// Timer is a one-shot timer on a Clock. As with time.Timer, Reset it only
// after Stop or after receiving from C.
type Timer interface {
	// C delivers the time the timer fired.
	C() <-chan time.Time
	// Stop disarms the timer and reports whether it was armed.
	Stop() bool
	// Reset re-arms the timer to fire d from now and reports whether it
	// was armed.
	Reset(d time.Duration) bool
}

// Real is the wall clock.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

func (c realClock) Sleep(ctx context.Context, d time.Duration) error { return sleep(c, ctx, d) }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

// sleep is Sleep on any clock: a timer raced against ctx.
func sleep(c Clock, ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := c.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C():
		return nil
	}
}

// Manual is a clock that moves only when Advance is called. Its timers and
// sleepers fire from Advance, in deadline order, and BlockUntil lets a
// test wait until the goroutine it drives has armed its wait, so the test
// never advances the clock past a wait that does not exist yet.
type Manual struct {
	mu      sync.Mutex
	armed   sync.Cond // broadcast whenever a timer is armed
	now     time.Time
	pending []*manualTimer
	seq     uint64 // arming order, the tie-break between equal deadlines
}

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.armed.L = &m.mu
	return m
}

// Now returns the clock's current reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTimer returns a timer that fires once Advance moves the clock d past
// the current reading; with d <= 0 it has already fired.
func (m *Manual) NewTimer(d time.Duration) Timer {
	t := &manualTimer{m: m, c: make(chan time.Time, 1)}
	m.mu.Lock()
	m.arm(t, d)
	m.mu.Unlock()
	return t
}

// Sleep waits until Advance moves the clock d past the current reading,
// or until ctx is done.
func (m *Manual) Sleep(ctx context.Context, d time.Duration) error { return sleep(m, ctx, d) }

// Advance moves the clock forward by d, firing every timer and sleeper that
// falls due, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for {
		i := -1
		for j, t := range m.pending {
			if t.at.After(end) {
				continue
			}
			if i < 0 || t.at.Before(m.pending[i].at) || t.at.Equal(m.pending[i].at) && t.seq < m.pending[i].seq {
				i = j
			}
		}
		if i < 0 {
			break
		}
		t := m.pending[i]
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
		t.c <- t.at // never blocks: arm drained the channel
	}
	m.now = end
}

// BlockUntil waits until at least n timers or sleepers are armed.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) < n {
		m.armed.Wait()
	}
}

// arm schedules t to fire d from now, dropping any fire it has not
// delivered. The caller holds m.mu.
func (m *Manual) arm(t *manualTimer, d time.Duration) {
	select {
	case <-t.c:
	default:
	}
	if d <= 0 {
		t.c <- m.now
		return
	}
	m.seq++
	t.at, t.seq = m.now.Add(d), m.seq
	m.pending = append(m.pending, t)
	m.armed.Broadcast()
}

// disarm unschedules t, dropping any fire it has not delivered, and
// reports whether it was armed. The caller holds m.mu.
func (m *Manual) disarm(t *manualTimer) bool {
	select {
	case <-t.c:
	default:
	}
	for i, p := range m.pending {
		if p == t {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

type manualTimer struct {
	m   *Manual
	c   chan time.Time
	at  time.Time
	seq uint64
}

func (t *manualTimer) C() <-chan time.Time { return t.c }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.m.disarm(t)
}

func (t *manualTimer) Reset(d time.Duration) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	armed := t.m.disarm(t)
	t.m.arm(t, d)
	return armed
}
