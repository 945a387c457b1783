// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate underneath every experiment in this
// repository: the paper evaluates RCAD with "a detailed event-driven
// simulator" (§5), and this package is that simulator's engine. It keeps the
// future-event list in an implicit 4-ary min-heap ordered by (time, sequence
// number), so two events scheduled for the same instant always fire in the
// order they were scheduled — runs are bit-for-bit reproducible.
//
// The heap stores Events directly (no interface boxing, no container/heap
// indirection), and an Event's storage is the heap node itself. An event
// that may be cancelled is owned by the object it times — every buffered
// packet's entry carries its release event, every Probe its tick — so
// arming, disarming and re-arming it touches no pool and copies no handle:
// the owner holds the event. At and After schedule fire-and-forget
// callbacks on pooled events, which the scheduler recycles through a free
// list, so steady-state scheduling — the At/fire/At churn every simulated
// packet generates — allocates nothing either way.
//
// Beside the heap sits a FIFO for fire-and-forget events that share one
// fixed delay (AfterFixed) — the network's per-hop arrivals, all scheduled
// τ after their send. Each is pushed at now + delay with the next sequence
// number; the clock never runs backwards, IEEE addition is monotonic and
// seq only grows, so the FIFO is already sorted by (time, sequence number)
// and needs no sifting. Step merges the FIFO head with the heap top by that
// same key, so the fired order is exactly the one an all-heap kernel gives.
//
// Simulated time is a float64 in abstract "time units", matching the paper's
// parameterisation (per-hop transmission delay τ = 1 time unit, buffer delay
// mean 1/µ = 30 time units, and so on).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// rather than by draining the event list or reaching the horizon.
var ErrStopped = errors.New("sim: stopped")

// Handler is what an Event runs when it fires.
type Handler interface {
	Fire()
}

// HandlerFunc adapts a plain function to Handler. A func value is
// pointer-shaped, so the conversion to Handler allocates nothing.
type HandlerFunc func()

// Fire implements Handler.
func (f HandlerFunc) Fire() { f() }

// Event is one entry of the future-event list: a time, a sequence number,
// a heap position and the Handler it runs.
//
// An owned Event belongs to the caller, usually as a field of the object it
// times. Bind its handler once; then Arm queues it, Disarm removes it, and
// it may be armed again once it has fired or been disarmed, from its own
// handler too. The zero value is a disarmed event with no handler. An Event
// must not be copied while it is queued.
//
// Pooled events belong to the scheduler: At and After take one from its
// free list, and Step returns it there before running its handler.
type Event struct {
	when     float64
	seq      uint64
	h        Handler
	pos      int32 // heap index + 1 while queued, 0 otherwise
	pooled   bool  // the scheduler's; back to the free list when it fires
	periodic bool  // a Probe's tick; cannot keep the simulation alive
}

// Bind sets the handler the event runs when it fires.
func (e *Event) Bind(h Handler) { e.h = h }

// Queued reports whether the event is armed: neither fired nor disarmed
// since it was last armed.
func (e *Event) Queued() bool { return e.pos != 0 }

// Scheduler owns the simulation clock and the future-event list. It is not
// safe for concurrent use: a simulation runs on a single goroutine, and the
// sweep harness parallelises across independent Scheduler instances instead.
type Scheduler struct {
	now     float64
	seq     uint64
	queue   []*Event // implicit 4-ary min-heap on (when, seq)
	free    []*Event // pooled events; steady-state At allocates nothing
	stopped bool
	fired   uint64

	// periodicPending counts queued periodic events. When it equals the
	// queue length and the FIFO is empty, only probes remain and the
	// simulation is over: Step drains them instead of letting them tick
	// forever.
	periodicPending int

	fixed fixedQueue // AfterFixed's events, sorted by (when, seq) on arrival
}

// fixedEvent is one AfterFixed event: its key and callback, no handle.
type fixedEvent struct {
	when float64
	seq  uint64
	fn   func()
}

// fixedQueue is a ring buffer of events pushed with one shared delay. Its
// backing array survives Reset, so steady-state pushes allocate nothing.
type fixedQueue struct {
	buf   []fixedEvent // len(buf) is zero or a power of two
	head  int
	n     int
	delay float64 // the delay every pending entry was pushed with
}

func (q *fixedQueue) push(e fixedEvent) {
	if q.n == len(q.buf) {
		grown := make([]fixedEvent, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *fixedQueue) pop() fixedEvent {
	e := q.buf[q.head]
	q.buf[q.head].fn = nil // a drained slot never pins a callback live
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// before reports whether the FIFO head fires before heap event ev.
func (q *fixedQueue) before(ev *Event) bool {
	e := &q.buf[q.head]
	return e.when < ev.when || (e.when == ev.when && e.seq < ev.seq)
}

// NewScheduler returns a Scheduler with the clock at time 0 and an empty
// event list.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() float64 { return s.now }

// Reset drains the scheduler and rearms it for a fresh run: the clock returns
// to 0, the sequence and fired counters restart, every still-queued event is
// disarmed (pooled ones return to the free list), and a Stop is cleared. The
// free list survives — that is the point: a reset scheduler re-enters steady
// state with its pool warm, so the next run's At/fire/At churn allocates
// nothing from the first event.
//
// Reset must not be called from inside an event callback; it is a
// between-runs lifecycle operation, the drain half of the engine's
// drain-and-rearm cycle.
func (s *Scheduler) Reset() {
	s.clear()
	for s.fixed.n > 0 {
		s.fixed.pop() // keeps the ring, drops the callbacks
	}
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
}

// Pending returns the number of events still queued. Disarming is eager —
// Disarm removes the event from the heap immediately — so disarmed events
// are never counted here.
func (s *Scheduler) Pending() int { return len(s.queue) + s.fixed.n }

// Fired returns the total number of events that have been executed.
func (s *Scheduler) Fired() uint64 { return s.fired }

// alloc takes a pooled event from the free list, or grows the pool.
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &Event{pooled: true}
}

// release returns a fired or drained pooled event to the free list.
func (s *Scheduler) release(ev *Event) {
	ev.h = nil
	s.free = append(s.free, ev)
}

// Arm queues ev to fire at absolute simulated time when, with the next
// sequence number: it fires after every event already queued for the same
// instant. ev must have a handler and must not be queued already; a
// reschedule is Disarm then Arm. Arming in the past (when < Now) or at NaN
// is a programmer error and panics; arming exactly at Now is allowed.
func (s *Scheduler) Arm(ev *Event, when float64) {
	if ev.pos != 0 {
		panic("sim: Arm called on a queued event")
	}
	if ev.h == nil {
		panic("sim: Arm called on an event with no handler")
	}
	if math.IsNaN(when) {
		panic("sim: event scheduled at NaN")
	}
	if when < s.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", when, s.now))
	}
	ev.when = when
	ev.seq = s.seq
	s.seq++
	if ev.periodic {
		s.periodicPending++
	}
	s.heapPush(ev)
}

// Disarm removes a queued event and reports whether it was queued (false if
// it already fired or was disarmed). Removal is O(log n) and eager: the event
// leaves the heap immediately, and its owner may arm it again at once.
func (s *Scheduler) Disarm(ev *Event) bool {
	if ev.pos == 0 {
		return false
	}
	s.heapRemove(int(ev.pos) - 1)
	if ev.periodic {
		s.periodicPending--
	}
	return true
}

// At schedules fn to run at absolute simulated time when, on a pooled event
// that cannot be cancelled. Scheduling in the past (when < Now) or at NaN
// panics, as Arm does; scheduling exactly at Now is allowed and fires after
// all currently queued events at Now. fn must not be nil.
func (s *Scheduler) At(when float64, fn func()) {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	ev := s.alloc()
	ev.h = HandlerFunc(fn)
	s.Arm(ev, when)
}

// After schedules fn to run delay time units from now. Negative delays
// panic.
func (s *Scheduler) After(delay float64, fn func()) {
	s.At(s.now+delay, fn)
}

// AfterFixed schedules fn to run delay time units from now, like After. It
// draws its sequence number from the same counter as At, so it fires in
// exactly the order After would give it. Events that all use one delay —
// the per-hop transmission delay τ — queue in a FIFO at O(1) per event
// instead of on the heap; a call whose delay differs from that of the
// entries still pending falls back to the heap, so mixing delays is merely
// slower, never wrong. Invalid arguments panic as they do for After.
func (s *Scheduler) AfterFixed(delay float64, fn func()) {
	when := s.now + delay
	if fn == nil || !(when >= s.now) || (s.fixed.n > 0 && delay != s.fixed.delay) {
		s.At(when, fn)
		return
	}
	s.fixed.delay = delay
	s.fixed.push(fixedEvent{when: when, seq: s.seq, fn: fn})
	s.seq++
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed (false when the
// queue is empty or the scheduler is stopped).
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	if s.fixed.n > 0 && (len(s.queue) == 0 || s.fixed.before(s.queue[0])) {
		e := s.fixed.pop()
		s.now = e.when
		s.fired++
		e.fn()
		return true
	}
	if len(s.queue) == 0 {
		return false
	}
	if s.fixed.n == 0 && s.periodicPending == len(s.queue) && s.queue[0].when > s.now {
		// Only periodic probes remain, none due at the current instant:
		// the simulation proper has drained, so retire them rather than
		// ticking forever. Probes due exactly now still fire first, so
		// the final instant of a run gets sampled.
		s.clear()
		return false
	}
	ev := s.heapPop()
	if ev.periodic {
		s.periodicPending--
	}
	s.now = ev.when
	h := ev.h
	s.fired++
	// A pooled event goes back to the free list before its handler runs,
	// so a callback that schedules its successor (the dominant pattern —
	// traffic chains, ARQ retries) reuses it without growing the pool. An
	// owned event is already disarmed here, so its handler may re-arm it.
	if ev.pooled {
		s.release(ev)
	}
	h.Fire()
	return true
}

// Run executes events until the queue is empty. It returns ErrStopped if
// halted by Stop, and nil otherwise.
func (s *Scheduler) Run() error {
	for s.Step() {
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// RunUntil executes events with timestamps <= horizon, then advances the
// clock to horizon. Events after the horizon remain queued. It returns
// ErrStopped if halted by Stop.
func (s *Scheduler) RunUntil(horizon float64) error {
	for !s.stopped && s.nextDue(horizon) {
		s.Step()
	}
	if s.stopped {
		return ErrStopped
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// nextDue reports whether an event is pending at or before horizon.
func (s *Scheduler) nextDue(horizon float64) bool {
	return (s.fixed.n > 0 && s.fixed.buf[s.fixed.head].when <= horizon) ||
		(len(s.queue) > 0 && s.queue[0].when <= horizon)
}

// clear disarms every event on the heap, returning pooled ones to the free
// list. Reset calls it, and so does Step once only probes remain.
func (s *Scheduler) clear() {
	for i, ev := range s.queue {
		s.queue[i] = nil
		ev.pos = 0
		if ev.pooled {
			s.release(ev)
		}
	}
	s.queue = s.queue[:0]
	s.periodicPending = 0
}

// nodeLess orders the heap: earlier time first, scheduling order breaking
// ties. seq is unique, so the order is total and runs are reproducible.
func nodeLess(a, b *Event) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// timeKey maps an event time to an unsigned integer that orders exactly as
// the time does, for every time the kernel admits: Arm rejects NaN and
// anything before Now, which never falls below zero, so only non-negative
// floats reach the heap, and their bit patterns are already monotonic.
// Shifting out the sign bit makes -0 tie with +0, as nodeLess does.
func timeKey(when float64) uint64 { return math.Float64bits(when) << 1 }

// lessMask is nodeLess on (timeKey, seq) pairs without a data-dependent
// branch. The 128-bit subtraction (ak, as) − (bk, bs), with seq as the low
// word, borrows out exactly when a sorts first; lessMask returns all ones
// then, and zero otherwise, for selecting with and/xor.
func lessMask(ak, as, bk, bs uint64) uint64 {
	_, borrow := bits.Sub64(as, bs, 0)
	_, borrow = bits.Sub64(ak, bk, borrow)
	return -borrow
}

// The event queue is an implicit 4-ary min-heap: children of i are
// 4i+1..4i+4. Compared with the binary heap it halves the tree depth, so
// the sift loops — the kernel's hottest code — touch fewer cache lines per
// operation; the wider child scan reads four adjacent slots. All sift loops
// hole-shift instead of swapping: the moving event is written once at its
// final slot.

// heapPush inserts ev and restores heap order.
func (s *Scheduler) heapPush(ev *Event) {
	i := len(s.queue)
	s.queue = append(s.queue, ev)
	s.siftUp(i)
}

// heapPop removes and returns the earliest event. It refills the root
// bottom-up: the hole at the root follows the least child down to a leaf,
// each child on the way moving up a level, and only then does the heap's
// last event fill the hole and sift up. The last event is a leaf, rarely
// early, so it seldom climbs; the descent compares children only with each
// other, never with the event being placed, so each level costs one key
// compare less than siftDown and has no early exit to mispredict. The child
// selection is siftDown's, written out again because a function for it does
// not inline.
func (s *Scheduler) heapPop() *Event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	s.queue = q
	top.pos = 0
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best, bk, bs := c, timeKey(q[c].when), q[c].seq
		if c+3 < n {
			g := q[c+1 : c+4 : c+4]
			best, bk, bs = pick(best, bk, bs, c+1, g[0])
			best, bk, bs = pick(best, bk, bs, c+2, g[1])
			best, _, _ = pick(best, bk, bs, c+3, g[2])
		} else {
			for j := c + 1; j < n; j++ {
				best, bk, bs = pick(best, bk, bs, j, q[j])
			}
		}
		q[i] = q[best]
		q[i].pos = int32(i) + 1
		i = best
	}
	q[i] = last
	s.siftUp(i)
	return top
}

// heapRemove deletes the event at index i (eager disarming).
func (s *Scheduler) heapRemove(i int) {
	q := s.queue
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if i != n {
		q[i] = last
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	ev.pos = 0
}

// siftUp moves the event at index i toward the root until its parent is
// not greater.
func (s *Scheduler) siftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].pos = int32(i) + 1
		i = p
	}
	q[i] = ev
	ev.pos = int32(i) + 1
}

// pick folds child j into a group's running minimum (best, bk, bs): the
// index, time key and seq of the least child so far.
func pick(best int, bk, bs uint64, j int, child *Event) (int, uint64, uint64) {
	jk, js := timeKey(child.when), child.seq
	m := lessMask(jk, js, bk, bs)
	return best ^ (best^j)&int(m), bk ^ (bk^jk)&m, bs ^ (bs^js)&m
}

// siftDown moves the event at index i toward the leaves until no child is
// smaller. It reports whether the event moved. Only Disarm needs it, when
// the heap's last event refills a slot in the middle of the heap.
//
// The least of up to four children is picked without a data-dependent
// branch: pick compares each child's key with the running best by
// lessMask, and the mask selects the index, key and seq. Which child wins
// is a coin flip to the branch predictor, and the mispredicted jumps of a
// compare chain were the sift's cost, not its loads. A full group is
// unrolled over a three-element subslice, so its loads carry no bounds
// checks.
func (s *Scheduler) siftDown(i int) bool {
	q := s.queue
	n := len(q)
	ev := q[i]
	tk, ts := timeKey(ev.when), ev.seq
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best, bk, bs := c, timeKey(q[c].when), q[c].seq
		if c+3 < n {
			g := q[c+1 : c+4 : c+4]
			best, bk, bs = pick(best, bk, bs, c+1, g[0])
			best, bk, bs = pick(best, bk, bs, c+2, g[1])
			best, bk, bs = pick(best, bk, bs, c+3, g[2])
		} else {
			for j := c + 1; j < n; j++ {
				best, bk, bs = pick(best, bk, bs, j, q[j])
			}
		}
		if lessMask(bk, bs, tk, ts) == 0 {
			break
		}
		q[i] = q[best]
		q[i].pos = int32(i) + 1
		i = best
	}
	q[i] = ev
	ev.pos = int32(i) + 1
	return i != start
}

// Probe is a handle to a periodic callback created by Every. Probes are
// second-class events: they fire every interval while ordinary events are
// still pending, but once only probes remain in the queue the scheduler
// retires them, so a probe never extends a simulation beyond its last real
// event. Stop cancels the probe early.
type Probe struct {
	s        *Scheduler
	interval float64
	fn       func(now float64)
	ev       Event // the next tick, re-armed by the tick before it
	stopped  bool
}

// Every schedules fn to run every interval time units, first at Now +
// interval. It panics on a nil fn or a non-positive, NaN or infinite
// interval. The callback receives the firing time.
func (s *Scheduler) Every(interval float64, fn func(now float64)) *Probe {
	if fn == nil {
		panic("sim: Every called with nil fn")
	}
	if !(interval > 0) || math.IsInf(interval, 1) {
		panic(fmt.Sprintf("sim: Every called with invalid interval %v", interval))
	}
	p := &Probe{s: s, interval: interval, fn: fn}
	p.ev.Bind(HandlerFunc(p.tick))
	p.ev.periodic = true
	s.Arm(&p.ev, s.now+interval)
	return p
}

func (p *Probe) tick() {
	p.fn(p.s.now)
	if !p.stopped && !p.s.stopped {
		p.s.Arm(&p.ev, p.s.now+p.interval)
	}
}

// Stop cancels the probe; it reports whether the probe was still running.
func (p *Probe) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	return p.s.Disarm(&p.ev)
}

// Active reports whether the probe is still scheduled to fire.
func (p *Probe) Active() bool { return !p.stopped && p.ev.Queued() }

// Stop halts the simulation: subsequent Step calls are no-ops and a running
// Run/RunUntil loop returns ErrStopped after the current event completes.
// It is intended to be called from inside an event callback.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }
