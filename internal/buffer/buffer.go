// Package buffer implements the store-and-forward buffering policies the
// paper analyses and evaluates:
//
//   - Unlimited: every packet is held for its full sampled delay — the
//     M/M/∞ model of §4 (evaluation case 2, "Delay&UnlimitedBuffers").
//   - DropTail: at most k packets buffered; arrivals that find the buffer
//     full are dropped — the M/M/k/k model of §4.
//   - Preemptive: at most k packets buffered; an arrival that finds the
//     buffer full forces a victim packet out for immediate transmission —
//     the RCAD mechanism of §5 (evaluation case 3, "Delay&LimitedBuffers").
//
// Victim selection is pluggable (VictimSelector) so the abl-victim ablation
// can compare the paper's choice — the packet with the shortest remaining
// delay, which keeps realised delays closest to the intended distribution —
// against alternatives.
//
// A buffer owns the release timing of the packets it holds: Admit arms the
// packet's release event on the simulation scheduler, and the configured
// forward function is invoked when the packet leaves. Buffers are not safe
// for concurrent use; each simulated node owns one and the simulation is
// single-goroutine.
package buffer

import (
	"fmt"

	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
)

// Forward is invoked when a packet leaves the buffer. preempted reports
// whether the packet was forced out early by a preemption rather than
// completing its sampled delay.
type Forward func(p *packet.Packet, preempted bool)

// Stats counts buffer events and tracks the occupancy process N(t) of §4.
type Stats struct {
	// Arrivals counts packets offered to the buffer.
	Arrivals uint64
	// Departures counts packets released (including preempted victims).
	Departures uint64
	// Drops counts packets discarded by a full DropTail buffer.
	Drops uint64
	// Preemptions counts victims forced out early by a Preemptive buffer.
	Preemptions uint64
	// Occupancy integrates the buffered-packet count over time.
	Occupancy metrics.TimeWeighted
	// HeldDelays accumulates the realised holding times of departed
	// packets, for comparing against the intended delay distribution.
	HeldDelays metrics.Welford
}

// DropRate returns the fraction of offered packets that were dropped.
func (s *Stats) DropRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Drops) / float64(s.Arrivals)
}

// PreemptionRate returns the fraction of offered packets whose admission
// forced a preemption.
func (s *Stats) PreemptionRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Preemptions) / float64(s.Arrivals)
}

// Policy is a store-and-forward buffering policy.
type Policy interface {
	// Admit offers a packet to the buffer at the current simulated time
	// with a sampled holding delay. Depending on the policy the packet is
	// buffered, dropped, or triggers a preemption.
	Admit(p *packet.Packet, delay float64)
	// Len returns the number of packets currently buffered.
	Len() int
	// Stats returns the buffer's counters. The pointer stays valid for the
	// buffer's lifetime.
	Stats() *Stats
	// Name returns a short identifier used in reports.
	Name() string
}

// Entry is a buffered packet visible to victim selectors.
type Entry struct {
	release sim.Event // armed for ReleaseAt while the packet is buffered

	// Packet is the buffered packet.
	Packet *packet.Packet
	// ArrivedAt is when the packet entered this buffer.
	ArrivedAt float64
	// ReleaseAt is when the packet's sampled delay expires.
	ReleaseAt float64

	index int // position in the owning buffer's entries slice
	owner *base
}

// releaser is an Entry seen as the handler of its release event. The
// conversion costs nothing, so binding the handler allocates nothing, and
// Entry itself exposes no Fire method.
type releaser Entry

// Fire runs when the entry's sampled delay expires.
func (r *releaser) Fire() {
	e := (*Entry)(r)
	e.owner.release(e, false)
}

// RemainingAt returns the delay remaining at time now.
func (e *Entry) RemainingAt(now float64) float64 { return e.ReleaseAt - now }

// VictimSelector picks which buffered packet a Preemptive buffer expels when
// it is full. entries is non-empty; the return value must be a valid index
// into it.
type VictimSelector interface {
	// Select returns the index of the victim among entries.
	Select(now float64, entries []*Entry, src *rng.Source) int
	// Name returns a short identifier used in reports.
	Name() string
}

// ShortestRemaining is the paper's RCAD victim rule: expel the packet with
// the shortest remaining delay, so realised delays stay closest to the
// intended distribution (§5).
type ShortestRemaining struct{}

var _ VictimSelector = ShortestRemaining{}

// Select implements VictimSelector.
func (ShortestRemaining) Select(_ float64, entries []*Entry, _ *rng.Source) int {
	best := 0
	for i, e := range entries[1:] {
		if e.ReleaseAt < entries[best].ReleaseAt {
			best = i + 1
		}
	}
	return best
}

// Name implements VictimSelector.
func (ShortestRemaining) Name() string { return "shortest-remaining" }

// LongestRemaining expels the packet with the longest remaining delay — the
// adversarial opposite of the paper's rule, included for the ablation.
type LongestRemaining struct{}

var _ VictimSelector = LongestRemaining{}

// Select implements VictimSelector.
func (LongestRemaining) Select(_ float64, entries []*Entry, _ *rng.Source) int {
	best := 0
	for i, e := range entries[1:] {
		if e.ReleaseAt > entries[best].ReleaseAt {
			best = i + 1
		}
	}
	return best
}

// Name implements VictimSelector.
func (LongestRemaining) Name() string { return "longest-remaining" }

// Oldest expels the packet that has been buffered longest (FIFO preemption).
type Oldest struct{}

var _ VictimSelector = Oldest{}

// Select implements VictimSelector.
func (Oldest) Select(_ float64, entries []*Entry, _ *rng.Source) int {
	best := 0
	for i, e := range entries[1:] {
		if e.ArrivedAt < entries[best].ArrivedAt {
			best = i + 1
		}
	}
	return best
}

// Name implements VictimSelector.
func (Oldest) Name() string { return "oldest" }

// Random expels a uniformly random buffered packet.
type Random struct{}

var _ VictimSelector = Random{}

// Select implements VictimSelector.
func (Random) Select(_ float64, entries []*Entry, src *rng.Source) int {
	return src.Intn(len(entries))
}

// Name implements VictimSelector.
func (Random) Name() string { return "random" }

// SelectorByName returns the victim selector with the given Name(). It
// returns an error for unknown names.
func SelectorByName(name string) (VictimSelector, error) {
	switch name {
	case "shortest-remaining":
		return ShortestRemaining{}, nil
	case "longest-remaining":
		return LongestRemaining{}, nil
	case "oldest":
		return Oldest{}, nil
	case "random":
		return Random{}, nil
	default:
		return nil, fmt.Errorf("buffer: unknown victim selector %q", name)
	}
}

// base carries the machinery shared by all policies: the entries slice, the
// release events, and stats upkeep. Buffer sizes in every experiment are
// tens of slots, so linear scans over the entries slice are simpler and no
// slower than maintaining auxiliary heaps per victim rule.
type base struct {
	sched   *sim.Scheduler
	forward Forward
	entries []*Entry
	free    []*Entry // recycled entries; steady-state Admit allocates nothing
	spare   []Entry  // the newest chunk's entries not yet handed out
	minted  int      // entries in all chunks so far
	stats   Stats
}

func newBase(sched *sim.Scheduler, forward Forward) (base, error) {
	if sched == nil {
		return base{}, fmt.Errorf("buffer: nil scheduler")
	}
	if forward == nil {
		return base{}, fmt.Errorf("buffer: nil forward function")
	}
	return base{sched: sched, forward: forward}, nil
}

func (b *base) Len() int { return len(b.entries) }

// Stats returns the buffer counters.
func (b *base) Stats() *Stats { return &b.stats }

func (b *base) observeOccupancy() {
	// Occupancy observations are monotone in time by construction
	// (scheduler time never decreases), so the error path is unreachable;
	// panic would hide a kernel bug, so surface it loudly instead.
	if err := b.stats.Occupancy.Observe(b.sched.Now(), float64(len(b.entries))); err != nil {
		panic(fmt.Sprintf("buffer: occupancy bookkeeping: %v", err))
	}
}

// acquireEntry pops a recycled entry, or hands out a fresh one from the
// newest chunk. Each chunk is as large as all earlier ones together (4, 4,
// 8, 16, …), so a buffer mints its entries in a handful of allocations and
// never holds more than about twice its peak occupancy. A fresh entry's
// release handler is bound here, once: recycled entries keep it.
func (b *base) acquireEntry() *Entry {
	if k := len(b.free); k > 0 {
		e := b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
		return e
	}
	if len(b.spare) == 0 {
		b.spare = make([]Entry, max(4, b.minted))
		b.minted += len(b.spare)
	}
	e := &b.spare[0]
	b.spare = b.spare[1:]
	e.owner = b
	e.release.Bind((*releaser)(e))
	return e
}

// recycleEntry drops the entry's packet reference and returns it to the pool.
func (b *base) recycleEntry(e *Entry) {
	e.Packet = nil
	b.free = append(b.free, e)
}

// insert buffers p until now+delay and arms its release.
func (b *base) insert(p *packet.Packet, delay float64) *Entry {
	now := b.sched.Now()
	e := b.acquireEntry()
	e.Packet, e.ArrivedAt, e.ReleaseAt, e.index = p, now, now+delay, len(b.entries)
	b.entries = append(b.entries, e)
	b.sched.Arm(&e.release, e.ReleaseAt)
	b.observeOccupancy()
	return e
}

// remove unlinks entry i in O(1) by swapping with the last element.
func (b *base) remove(e *Entry) {
	last := len(b.entries) - 1
	b.entries[e.index] = b.entries[last]
	b.entries[e.index].index = e.index
	b.entries[last] = nil
	b.entries = b.entries[:last]
}

// release forwards a buffered packet, due either to its delay expiring
// (preempted == false) or to preemption (preempted == true). The entry is
// recycled before the forward call so downstream processing that lands a
// packet back in this buffer (a preemption cascade, a short loop) reuses it
// immediately — mirroring the kernel's release-before-run idiom.
func (b *base) release(e *Entry, preempted bool) {
	if preempted {
		b.sched.Disarm(&e.release)
	}
	b.remove(e)
	b.stats.Departures++
	b.stats.HeldDelays.Add(b.sched.Now() - e.ArrivedAt)
	b.observeOccupancy()
	p := e.Packet
	b.recycleEntry(e)
	b.forward(p, preempted)
}

// Evacuate disarms every pending release and removes all buffered packets,
// returning them to the caller. The network simulator uses it to model node
// failure: a dead node's buffer contents are lost. Evacuated packets count
// as neither departures nor drops in the buffer's stats — the caller owns
// their accounting.
func (b *base) Evacuate() []*packet.Packet {
	out := make([]*packet.Packet, 0, len(b.entries))
	for i, e := range b.entries {
		b.sched.Disarm(&e.release)
		out = append(out, e.Packet)
		b.recycleEntry(e)
		b.entries[i] = nil
	}
	b.entries = b.entries[:0]
	b.observeOccupancy()
	return out
}

// Reset rearms the buffer for a fresh run on a reset scheduler: any leftover
// entries are recycled (the scheduler reset disarmed their release events)
// and the stats restart from zero, in place, so the pointer Stats returned
// stays valid. The entry pool survives — a reset buffer re-enters steady
// state warm. Policies holding private randomness (Preemptive) must
// additionally be reseeded by their owner; see core.RCAD.Reset.
func (b *base) Reset() {
	for i, e := range b.entries {
		b.recycleEntry(e)
		b.entries[i] = nil
	}
	b.entries = b.entries[:0]
	b.stats = Stats{}
}

// Unlimited buffers every packet for its full sampled delay (M/M/∞).
type Unlimited struct {
	base
}

var _ Policy = (*Unlimited)(nil)

// NewUnlimited returns an unlimited buffer releasing packets through
// forward on the given scheduler.
func NewUnlimited(sched *sim.Scheduler, forward Forward) (*Unlimited, error) {
	b, err := newBase(sched, forward)
	if err != nil {
		return nil, err
	}
	return &Unlimited{base: b}, nil
}

// Admit implements Policy.
func (u *Unlimited) Admit(p *packet.Packet, delay float64) {
	u.stats.Arrivals++
	u.insert(p, delay)
}

// Name implements Policy.
func (u *Unlimited) Name() string { return "unlimited" }

// DropTail buffers at most capacity packets and drops arrivals that find the
// buffer full (M/M/k/k with blocking, §4).
type DropTail struct {
	base
	capacity int
}

var _ Policy = (*DropTail)(nil)

// NewDropTail returns a finite buffer with the given capacity (>= 1).
func NewDropTail(sched *sim.Scheduler, forward Forward, capacity int) (*DropTail, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: drop-tail capacity must be >= 1, got %d", capacity)
	}
	b, err := newBase(sched, forward)
	if err != nil {
		return nil, err
	}
	return &DropTail{base: b, capacity: capacity}, nil
}

// Admit implements Policy.
func (d *DropTail) Admit(p *packet.Packet, delay float64) {
	d.stats.Arrivals++
	if len(d.entries) >= d.capacity {
		d.stats.Drops++
		return
	}
	d.insert(p, delay)
}

// Name implements Policy.
func (d *DropTail) Name() string { return "drop-tail" }

// Capacity returns the buffer size k.
func (d *DropTail) Capacity() int { return d.capacity }

// Preemptive is the RCAD buffer (§5): at most capacity packets are held, and
// an arrival that finds the buffer full forces the selector's victim out for
// immediate transmission instead of dropping anything.
type Preemptive struct {
	base
	capacity int
	selector VictimSelector
	src      *rng.Source
}

var _ Policy = (*Preemptive)(nil)

// NewPreemptive returns a preemptive buffer with the given capacity (>= 1)
// and victim selector. src supplies randomness for stochastic selectors and
// must be non-nil.
func NewPreemptive(sched *sim.Scheduler, forward Forward, capacity int, selector VictimSelector, src *rng.Source) (*Preemptive, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: preemptive capacity must be >= 1, got %d", capacity)
	}
	if selector == nil {
		return nil, fmt.Errorf("buffer: nil victim selector")
	}
	if src == nil {
		return nil, fmt.Errorf("buffer: nil random source")
	}
	b, err := newBase(sched, forward)
	if err != nil {
		return nil, err
	}
	return &Preemptive{base: b, capacity: capacity, selector: selector, src: src}, nil
}

// Admit implements Policy.
func (r *Preemptive) Admit(p *packet.Packet, delay float64) {
	r.stats.Arrivals++
	if len(r.entries) >= r.capacity {
		victim := r.entries[r.selector.Select(r.sched.Now(), r.entries, r.src)]
		r.stats.Preemptions++
		r.release(victim, true)
	}
	r.insert(p, delay)
}

// Name implements Policy.
func (r *Preemptive) Name() string { return "preemptive" }

// Capacity returns the buffer size k.
func (r *Preemptive) Capacity() int { return r.capacity }

// Selector returns the victim-selection rule in use.
func (r *Preemptive) Selector() VictimSelector { return r.selector }
