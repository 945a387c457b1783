package gateway

import (
	"sync"
	"time"

	"tempriv/internal/clock"
)

// Per-worker health scoring: every worker request the gateway makes
// feeds a rolling window of success/failure outcomes. A worker whose
// window crosses the error-rate threshold is ejected — dispatch routes
// around it — and re-admitted through a half-open probe
// after a cooldown, exactly like the result cache's circuit breaker but
// keyed per worker. Backpressure (Retry-After on 429/503) is tracked
// separately: a shedding worker is alive and healthy, it just asked for
// breathing room, so it must not count toward ejection.
//
// This is what makes the gateway partition-tolerant in the asymmetric
// case: a worker the gateway cannot reach may still heartbeat happily
// (worker→gateway traffic takes a different path), so its lease never
// expires and the reconcile loop alone would wait forever. Ejection
// fires on the gateway's own observations instead.

const (
	// healthWindow is how many recent outcomes a worker's error rate
	// covers.
	healthWindow = 32
	// ejectMinSamples is the fewest outcomes an ejection may rest on, so
	// one failed first request does not eject a fresh worker.
	ejectMinSamples = 3
)

type healthState int

const (
	healthOK healthState = iota
	healthEjected
	healthProbing
)

// workerHealth is one worker's rolling window plus breaker state.
type workerHealth struct {
	window    []bool // ring buffer of outcomes; true = failed
	next      int
	state     healthState
	ejectedAt time.Time
	probeAt   time.Time
	// downSince is when the worker first left healthOK; unlike ejectedAt
	// it survives failed half-open probes (which refresh the cooldown), so
	// the reconcile loop's eject-handoff grace window actually elapses.
	downSince time.Time
	ejections uint64
	// backoffUntil is when the worker's latest Retry-After window ends;
	// dispatch skips (and may shed) while it is in the future.
	backoffUntil time.Time
}

func (wh *workerHealth) push(failed bool) {
	if len(wh.window) < healthWindow {
		wh.window = append(wh.window, failed)
		return
	}
	wh.window[wh.next] = failed
	wh.next = (wh.next + 1) % healthWindow
}

func (wh *workerHealth) errorRate() float64 {
	if len(wh.window) == 0 {
		return 0
	}
	failed := 0
	for _, f := range wh.window {
		if f {
			failed++
		}
	}
	return float64(failed) / float64(len(wh.window))
}

func (wh *workerHealth) reset() {
	wh.window = wh.window[:0]
	wh.next = 0
}

// healthTracker scores every worker the gateway talks to.
type healthTracker struct {
	mu        sync.Mutex
	clock     clock.Clock
	threshold float64
	cooldown  time.Duration
	workers   map[string]*workerHealth

	onEject   func(id string)
	onRestore func(id string)
}

func newHealthTracker(threshold float64, cooldown time.Duration, clk clock.Clock) *healthTracker {
	if threshold <= 0 || threshold > 1 {
		threshold = 0.5
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return &healthTracker{
		clock:     clk,
		threshold: threshold,
		cooldown:  cooldown,
		workers:   make(map[string]*workerHealth),
	}
}

func (h *healthTracker) get(id string) *workerHealth {
	wh, ok := h.workers[id]
	if !ok {
		wh = &workerHealth{}
		h.workers[id] = wh
	}
	return wh
}

// observe records one request outcome and drives the breaker. A success
// against an ejected or probing worker restores it (the half-open probe
// succeeded); a failure while probing re-ejects with a fresh cooldown.
func (h *healthTracker) observe(id string, failed bool) {
	h.mu.Lock()
	wh := h.get(id)
	wh.push(failed)
	var ejected, restored bool
	switch wh.state {
	case healthOK:
		if failed && len(wh.window) >= ejectMinSamples && wh.errorRate() >= h.threshold {
			wh.state = healthEjected
			wh.ejectedAt = h.clock.Now()
			wh.downSince = wh.ejectedAt
			wh.ejections++
			ejected = true
		}
	case healthEjected, healthProbing:
		if failed {
			wh.state = healthEjected
			wh.ejectedAt = h.clock.Now()
		} else {
			wh.state = healthOK
			wh.reset()
			wh.downSince = time.Time{}
			restored = true
		}
	}
	h.mu.Unlock()
	// Hooks fire outside the lock (they log and bump metrics).
	if ejected && h.onEject != nil {
		h.onEject(id)
	}
	if restored && h.onRestore != nil {
		h.onRestore(id)
	}
}

// observeBackpressure records a worker's Retry-After signal: the worker
// is healthy but saturated until the window passes.
func (h *healthTracker) observeBackpressure(id string, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	until := h.clock.Now().Add(d)
	wh := h.get(id)
	if until.After(wh.backoffUntil) {
		wh.backoffUntil = until
	}
}

// allow reports whether requests may target the worker. An ejected
// worker whose cooldown elapsed transitions to probing and admits
// exactly one request — the half-open probe; further requests stay
// blocked until the probe's outcome is observed (or the probe itself
// times out after another cooldown, admitting a retry).
func (h *healthTracker) allow(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	wh, ok := h.workers[id]
	if !ok {
		return true
	}
	now := h.clock.Now()
	switch wh.state {
	case healthOK:
		return true
	case healthEjected:
		if now.Sub(wh.ejectedAt) >= h.cooldown {
			wh.state = healthProbing
			wh.probeAt = now
			return true
		}
		return false
	case healthProbing:
		if now.Sub(wh.probeAt) >= h.cooldown {
			wh.probeAt = now // the probe went missing; admit another
			return true
		}
		return false
	}
	return true
}

// backpressured reports whether the worker's latest Retry-After window
// is still active, and how much of it remains.
func (h *healthTracker) backpressured(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wh, ok := h.workers[id]
	if !ok {
		return 0, false
	}
	remain := wh.backoffUntil.Sub(h.clock.Now())
	if remain <= 0 {
		return 0, false
	}
	return remain, true
}

// ejectedSince reports whether the worker is currently ejected (or mid
// probe) and since when — the reconcile loop hands off routes stuck on
// a worker ejected past its grace window, covering asymmetric partitions
// where the lease never expires.
func (h *healthTracker) ejectedSince(id string) (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wh, ok := h.workers[id]
	if !ok || wh.state == healthOK {
		return time.Time{}, false
	}
	return wh.downSince, true
}

// ejectedCount reports how many workers are currently not healthy.
func (h *healthTracker) ejectedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, wh := range h.workers {
		if wh.state != healthOK {
			n++
		}
	}
	return n
}

// healthView is one worker's row in the GET /v1/cluster document.
type healthView struct {
	State        string  `json:"state"`
	ErrorRate    float64 `json:"error_rate"`
	Samples      int     `json:"samples"`
	Ejections    uint64  `json:"ejections"`
	Backpressure bool    `json:"backpressured,omitempty"`
}

// view snapshots every tracked worker's health for observability.
func (h *healthTracker) view() map[string]healthView {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock.Now()
	out := make(map[string]healthView, len(h.workers))
	for id, wh := range h.workers {
		state := "healthy"
		switch wh.state {
		case healthEjected:
			state = "ejected"
		case healthProbing:
			state = "probing"
		}
		out[id] = healthView{
			State:        state,
			ErrorRate:    wh.errorRate(),
			Samples:      len(wh.window),
			Ejections:    wh.ejections,
			Backpressure: wh.backoffUntil.After(now),
		}
	}
	return out
}
