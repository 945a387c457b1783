// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate underneath every experiment in this
// repository: the paper evaluates RCAD with "a detailed event-driven
// simulator" (§5), and this package is that simulator's engine. It keeps the
// future-event list in an implicit 4-ary min-heap ordered by (time, sequence
// number), so two events scheduled for the same instant always fire in the
// order they were scheduled — runs are bit-for-bit reproducible.
//
// The heap stores typed timer nodes directly (no interface boxing, no
// container/heap indirection) and recycles fired or cancelled nodes through
// a per-scheduler free list, so steady-state scheduling — the At/fire/At
// churn every simulated packet generates — allocates nothing. Timer handles
// carry a generation number checked against the node they reference: a
// handle to a fired or cancelled timer can never observe, cancel or
// reschedule the recycled node's next occupant.
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

// timerNode is the pooled storage behind a Timer handle. Nodes live on the
// scheduler's heap while pending and on its free list afterwards; gen is
// bumped on every release so stale handles go inert.
type timerNode struct {
	when     float64
	seq      uint64
	gen      uint64
	fn       func()
	index    int32 // heap index, -1 when not queued
	periodic bool  // owned by a Probe; cannot keep the simulation alive
}

// Timer is a handle to a scheduled event, created by Scheduler.At and
// Scheduler.After. It is a small value: copy it freely. The zero value is an
// inert handle — Active reports false and Cancel/Reschedule are no-ops.
//
// The handle stays valid across Reschedule. Once the event fires or is
// cancelled its node returns to the scheduler's free list; the handle then
// permanently reports inactive, even after the node is recycled for a new
// timer.
type Timer struct {
	node *timerNode
	gen  uint64
	when float64
}

// When returns the simulated time at which the timer is scheduled to fire
// (tracking Reschedule while the timer is pending). After the timer fires or
// is cancelled it reports the last schedule time the handle observed.
func (t Timer) When() float64 {
	if n := t.node; n != nil && n.gen == t.gen {
		return n.when
	}
	return t.when
}

// Active reports whether the timer is still pending: neither fired nor
// cancelled.
func (t Timer) Active() bool {
	n := t.node
	return n != nil && n.gen == t.gen && n.index >= 0
}

// Scheduler owns the simulation clock and the future-event list. It is not
// safe for concurrent use: a simulation runs on a single goroutine, and the
// sweep harness parallelises across independent Scheduler instances instead.
type Scheduler struct {
	now     float64
	seq     uint64
	queue   []*timerNode // implicit 4-ary min-heap on (when, seq)
	free    []*timerNode // recycled nodes; steady-state At allocates nothing
	stopped bool
	fired   uint64

	// periodicPending counts queued periodic timers. When it equals the
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

// before reports whether the FIFO head fires before heap node t.
func (q *fixedQueue) before(t *timerNode) bool {
	e := &q.buf[q.head]
	return e.when < t.when || (e.when == t.when && e.seq < t.seq)
}

// NewScheduler returns a Scheduler with the clock at time 0 and an empty
// event list.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() float64 { return s.now }

// Reset drains the scheduler and rearms it for a fresh run: the clock returns
// to 0, the sequence and fired counters restart, any still-queued timers are
// cancelled, and a Stop is cleared. The timer-node free list survives — that
// is the point: a reset scheduler re-enters steady state with its pools warm,
// so the next run's At/fire/At churn allocates nothing from the first event.
// Every Timer handle issued before the reset goes inert (the generation bump
// on release), exactly as if it had been cancelled.
//
// Reset must not be called from inside an event callback; it is a
// between-runs lifecycle operation, the drain half of the engine's
// drain-and-rearm cycle.
func (s *Scheduler) Reset() {
	for i, t := range s.queue {
		s.queue[i] = nil
		s.release(t)
	}
	s.queue = s.queue[:0]
	s.periodicPending = 0
	for s.fixed.n > 0 {
		s.fixed.pop() // keeps the ring, drops the callbacks
	}
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
}

// Pending returns the number of events still queued. Cancellation is eager —
// Cancel removes the timer from the heap immediately — so cancelled events
// are never counted here.
func (s *Scheduler) Pending() int { return len(s.queue) + s.fixed.n }

// Fired returns the total number of events that have been executed.
func (s *Scheduler) Fired() uint64 { return s.fired }

// alloc takes a node from the free list, or grows the pool.
func (s *Scheduler) alloc() *timerNode {
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return t
	}
	return &timerNode{index: -1}
}

// release retires a fired or cancelled node to the free list. The generation
// bump is what makes every outstanding handle to it inert.
func (s *Scheduler) release(t *timerNode) {
	t.gen++
	t.fn = nil
	t.periodic = false
	t.index = -1
	s.free = append(s.free, t)
}

// At schedules fn to run at absolute simulated time when. Scheduling in the
// past (when < Now) is a programmer error and panics; scheduling exactly at
// Now is allowed and fires after all currently queued events at Now with a
// lower sequence number. fn must not be nil.
func (s *Scheduler) At(when float64, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if math.IsNaN(when) {
		panic("sim: At called with NaN time")
	}
	if when < s.now {
		panic(fmt.Sprintf("sim: At called with time %v before now %v", when, s.now))
	}
	t := s.alloc()
	t.when = when
	t.seq = s.seq
	t.fn = fn
	s.seq++
	s.heapPush(t)
	return Timer{node: t, gen: t.gen, when: when}
}

// After schedules fn to run delay time units from now. Negative delays
// panic.
func (s *Scheduler) After(delay float64, fn func()) Timer {
	return s.At(s.now+delay, fn)
}

// AfterFixed schedules fn to run delay time units from now, like After, for
// an event that is never cancelled or rescheduled and so needs no Timer. It
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

// Cancel removes a pending timer. It reports whether the timer was still
// pending (true) or had already fired or been cancelled (false).
// Cancellation is O(log n) and eager: the timer is removed from the heap
// immediately and its node recycled, not lazily skipped.
func (s *Scheduler) Cancel(t Timer) bool {
	n := t.node
	if n == nil || n.gen != t.gen || n.index < 0 {
		return false
	}
	s.heapRemove(int(n.index))
	if n.periodic {
		s.periodicPending--
	}
	s.release(n)
	return true
}

// Reschedule moves a pending timer to a new absolute time, preserving its
// callback. It reports whether the move happened (false if the timer already
// fired or was cancelled). The rescheduled event receives a fresh sequence
// number, so it fires after same-time events scheduled before the move. The
// handle remains valid for the moved event.
func (s *Scheduler) Reschedule(t Timer, when float64) bool {
	n := t.node
	if n == nil || n.gen != t.gen || n.index < 0 {
		return false
	}
	if math.IsNaN(when) {
		panic("sim: Reschedule called with NaN time")
	}
	if when < s.now {
		panic(fmt.Sprintf("sim: Reschedule to time %v before now %v", when, s.now))
	}
	n.when = when
	n.seq = s.seq
	s.seq++
	s.heapFix(int(n.index))
	return true
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
		s.drainPeriodic()
		return false
	}
	t := s.heapPop()
	if t.periodic {
		s.periodicPending--
	}
	s.now = t.when
	fn := t.fn
	s.fired++
	// Release before running fn: the node is immediately reusable, so a
	// callback that re-arms itself (the dominant pattern — traffic chains,
	// buffer releases, probes) recycles its own node without touching the
	// heap's tail. The handle the callback may still hold went inert with
	// the generation bump.
	s.release(t)
	fn()
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

// drainPeriodic retires every queued timer. It is only called when all
// remaining timers are periodic (periodicPending == len(queue)) and the FIFO
// is empty.
func (s *Scheduler) drainPeriodic() {
	for i, t := range s.queue {
		s.queue[i] = nil
		s.release(t)
	}
	s.queue = s.queue[:0]
	s.periodicPending = 0
}

// nodeLess orders the heap: earlier time first, scheduling order breaking
// ties. seq is unique, so the order is total and runs are reproducible.
func nodeLess(a, b *timerNode) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// timeKey maps an event time to an unsigned integer that orders exactly as
// the time does, for every time the kernel admits: At and Reschedule reject
// NaN and anything before Now, which never falls below zero, so only
// non-negative floats reach the heap, and their bit patterns are already
// monotonic. Shifting out the sign bit makes -0 tie with +0, as nodeLess
// does.
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
// hole-shift instead of swapping: the moving node is written once at its
// final slot.

// heapPush inserts t and restores heap order.
func (s *Scheduler) heapPush(t *timerNode) {
	i := len(s.queue)
	s.queue = append(s.queue, t)
	t.index = int32(i)
	s.siftUp(i)
}

// heapPop removes and returns the minimum node.
func (s *Scheduler) heapPop() *timerNode {
	q := s.queue
	t := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		q[0].index = 0
		s.siftDown(0)
	}
	t.index = -1
	return t
}

// heapRemove deletes the node at index i (eager cancellation).
func (s *Scheduler) heapRemove(i int) {
	q := s.queue
	t := q[i]
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[n] = nil
		s.queue = q[:n]
		q[i].index = int32(i)
		s.heapFix(i)
	} else {
		q[n] = nil
		s.queue = q[:n]
	}
	t.index = -1
}

// heapFix restores heap order after the node at index i changed key
// (Reschedule) or was replaced (heapRemove).
func (s *Scheduler) heapFix(i int) {
	if !s.siftDown(i) {
		s.siftUp(i)
	}
}

// siftUp moves the node at index i toward the root until its parent is not
// greater.
func (s *Scheduler) siftUp(i int) {
	q := s.queue
	t := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(t, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = t
	t.index = int32(i)
}

// pick folds child j into a group's running minimum (best, bk, bs): the
// index, time key and seq of the least child so far.
func pick(best int, bk, bs uint64, j int, child *timerNode) (int, uint64, uint64) {
	jk, js := timeKey(child.when), child.seq
	m := lessMask(jk, js, bk, bs)
	return best ^ (best^j)&int(m), bk ^ (bk^jk)&m, bs ^ (bs^js)&m
}

// siftDown moves the node at index i toward the leaves until no child is
// smaller. It reports whether the node moved.
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
	t := q[i]
	tk, ts := timeKey(t.when), t.seq
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
		q[i].index = int32(i)
		i = best
	}
	q[i] = t
	t.index = int32(i)
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
	fire     func() // pre-bound tick, so periodic re-arming allocates nothing
	timer    Timer
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
	p.fire = p.tick
	p.arm()
	return p
}

func (p *Probe) arm() {
	p.timer = p.s.At(p.s.now+p.interval, p.fire)
	p.timer.node.periodic = true
	p.s.periodicPending++
}

func (p *Probe) tick() {
	p.fn(p.s.now)
	if !p.stopped && !p.s.stopped {
		p.arm()
	}
}

// Stop cancels the probe; it reports whether the probe was still running.
func (p *Probe) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	return p.s.Cancel(p.timer)
}

// Active reports whether the probe is still scheduled to fire.
func (p *Probe) Active() bool { return !p.stopped && p.timer.Active() }

// Stop halts the simulation: subsequent Step calls are no-ops and a running
// Run/RunUntil loop returns ErrStopped after the current event completes.
// It is intended to be called from inside an event callback.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }
