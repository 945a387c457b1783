package resultcache

import (
	"sync"
	"time"

	"tempriv/internal/clock"
)

// BreakerState names the circuit breaker's position.
type BreakerState string

const (
	// BreakerClosed: the disk is healthy; cache operations run normally.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: too many consecutive I/O errors; every cache operation
	// short-circuits to a bypass (Get reports a miss without touching the
	// disk, Put is a no-op) until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown elapsed; operations probe the disk
	// again. One failure re-opens, one success closes.
	BreakerHalfOpen BreakerState = "half-open"
)

// breaker is the cache's disk-health circuit breaker. The policy follows
// the serving stack's degradation stance: when storage is sick the service
// keeps answering — it just stops relying on the disk (compute-always)
// instead of converting storage errors into request failures.
type breaker struct {
	clock    clock.Clock
	onChange func(from, to BreakerState) // nil = no hook

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
}

func newBreaker(clk clock.Clock, onChange func(from, to BreakerState)) *breaker {
	return &breaker{clock: clk, onChange: onChange, state: BreakerClosed}
}

// allow reports whether a disk operation may proceed. In the open state it
// returns false until the cooldown elapses, at which point the breaker
// half-opens and lets probes through.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.transitionLocked(BreakerHalfOpen)
		return true
	default:
		return true
	}
}

// success records a healthy disk operation.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	if b.state == BreakerHalfOpen {
		b.transitionLocked(BreakerClosed)
	}
}

// failure records a disk I/O error; crossing the threshold (or failing a
// half-open probe) opens the breaker.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.consecutive >= breakerThreshold) {
		b.openedAt = b.clock.Now()
		b.transitionLocked(BreakerOpen)
	}
}

// current returns the state for Stats, resolving an elapsed cooldown so
// observers never see a stale "open".
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.clock.Now().Sub(b.openedAt) >= breakerCooldown {
		b.transitionLocked(BreakerHalfOpen)
	}
	return b.state
}

// transitionLocked moves to next and fires the hook. The hook is invoked
// with the lock held, so it must be fast and must not call back into the
// breaker (in practice it sets a telemetry gauge).
func (b *breaker) transitionLocked(next BreakerState) {
	if b.state == next {
		return
	}
	prev := b.state
	b.state = next
	if next == BreakerOpen {
		b.consecutive = 0
	}
	if b.onChange != nil {
		b.onChange(prev, next)
	}
}
