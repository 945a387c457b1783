package sim

// The pre-refactor kernel — container/heap over interface-boxed *legacyTimer
// with a binary heap and per-event allocation — kept as a test double, with
// RunUntil and Pending added for the differential. The differential tests
// in differential_test.go replay randomized workloads against both kernels
// and require identical fired-event sequences, and the benchmarks in
// kernel_bench_test.go use it as the baseline the 4-ary pooled kernel is
// measured against.

import (
	"container/heap"
	"fmt"
	"math"
)

type legacyTimer struct {
	when      float64
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
	fired     bool
	periodic  bool
}

func (t *legacyTimer) active() bool { return !t.cancelled && !t.fired }

type legacyQueue []*legacyTimer

func (q legacyQueue) Len() int { return len(q) }

func (q legacyQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q legacyQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *legacyQueue) Push(x any) {
	t, ok := x.(*legacyTimer)
	if !ok {
		panic(fmt.Sprintf("sim: legacyQueue.Push got %T, want *legacyTimer", x))
	}
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *legacyQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*q = old[:n-1]
	return t
}

type legacyScheduler struct {
	now             float64
	seq             uint64
	queue           legacyQueue
	stopped         bool
	fired           uint64
	periodicPending int
}

func newLegacyScheduler() *legacyScheduler { return &legacyScheduler{} }

func (s *legacyScheduler) Now() float64 { return s.now }

func (s *legacyScheduler) Fired() uint64 { return s.fired }

func (s *legacyScheduler) At(when float64, fn func()) *legacyTimer {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if math.IsNaN(when) {
		panic("sim: At called with NaN time")
	}
	if when < s.now {
		panic(fmt.Sprintf("sim: At called with time %v before now %v", when, s.now))
	}
	t := &legacyTimer{when: when, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, t)
	return t
}

func (s *legacyScheduler) After(delay float64, fn func()) *legacyTimer {
	return s.At(s.now+delay, fn)
}

func (s *legacyScheduler) Cancel(t *legacyTimer) bool {
	if t == nil || !t.active() {
		return false
	}
	t.cancelled = true
	if t.index >= 0 {
		heap.Remove(&s.queue, t.index)
		if t.periodic {
			s.periodicPending--
		}
	}
	return true
}

func (s *legacyScheduler) Reschedule(t *legacyTimer, when float64) bool {
	if t == nil || !t.active() {
		return false
	}
	if when < s.now {
		panic(fmt.Sprintf("sim: Reschedule to time %v before now %v", when, s.now))
	}
	t.when = when
	t.seq = s.seq
	s.seq++
	heap.Fix(&s.queue, t.index)
	return true
}

func (s *legacyScheduler) Step() bool {
	if s.stopped {
		return false
	}
	for len(s.queue) > 0 {
		if s.periodicPending == len(s.queue) && s.queue[0].when > s.now {
			s.drainPeriodic()
			return false
		}
		t, ok := heap.Pop(&s.queue).(*legacyTimer)
		if !ok {
			panic("sim: event queue held a non-Timer element")
		}
		if t.periodic {
			s.periodicPending--
		}
		if t.cancelled {
			continue
		}
		s.now = t.when
		t.fired = true
		s.fired++
		t.fn()
		return true
	}
	return false
}

func (s *legacyScheduler) Run() error {
	for s.Step() {
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// RunUntil and Pending mirror the kernel's, so the differential can stop
// both kernels at the same horizons.
func (s *legacyScheduler) RunUntil(horizon float64) error {
	for !s.stopped && len(s.queue) > 0 && s.queue[0].when <= horizon {
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

func (s *legacyScheduler) Pending() int { return len(s.queue) }

func (s *legacyScheduler) drainPeriodic() {
	for _, t := range s.queue {
		t.cancelled = true
		t.index = -1
	}
	s.queue = s.queue[:0]
	s.periodicPending = 0
}

type legacyProbe struct {
	s        *legacyScheduler
	interval float64
	fn       func(now float64)
	timer    *legacyTimer
	stopped  bool
}

func (s *legacyScheduler) Every(interval float64, fn func(now float64)) *legacyProbe {
	if fn == nil {
		panic("sim: Every called with nil fn")
	}
	if !(interval > 0) || math.IsInf(interval, 1) {
		panic(fmt.Sprintf("sim: Every called with invalid interval %v", interval))
	}
	p := &legacyProbe{s: s, interval: interval, fn: fn}
	p.arm()
	return p
}

func (p *legacyProbe) arm() {
	p.timer = p.s.At(p.s.now+p.interval, p.fire)
	p.timer.periodic = true
	p.s.periodicPending++
}

func (p *legacyProbe) fire() {
	p.fn(p.s.now)
	if !p.stopped && !p.s.stopped {
		p.arm()
	}
}

func (p *legacyProbe) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	return p.s.Cancel(p.timer)
}
