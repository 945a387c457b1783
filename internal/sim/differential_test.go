package sim

// Differential check of the refactored kernel against the pre-refactor
// container/heap kernel (legacy_kernel_test.go): randomized workloads of
// pooled schedules, owned events, fixed-delay schedules, disarms,
// reschedules, re-arms and periodic probes — including same-instant ties
// and actions taken from inside firing callbacks — run through RunUntil
// horizons, a Reset and a final Run, and must produce the identical
// fired-event sequence on both. Every disarm, reschedule and re-arm must
// report the identical outcome. The kernel drives cancellable events as
// owned Events (Arm, Disarm, Disarm then Arm); the legacy side uses its
// timer handles, and re-arms by scheduling the fired or cancelled timer's
// callback anew. Fixed-delay events go through AfterFixed on the kernel and
// through plain After on the legacy side, so the FIFO is held to the heap's
// (time, seq) order. This is the determinism contract the kernel rides on:
// identical (time, seq) total order means sweep tables, trace goldens and
// scenario fingerprint cache keys stay byte-identical.

import (
	"math"
	"slices"
	"testing"

	"tempriv/internal/rng"
)

// diffAction kinds.
const (
	actSchedule   = iota // schedule delay ahead with its own script
	actCancel            // disarm target
	actReschedule        // move target to now+delay if it is queued
	actFixed             // AfterFixed(delay) with its own script; no handle
	actRearm             // arm target again at now+delay if it is not queued
)

// maxRearms bounds how often one id is re-armed, so an event that re-arms
// itself, or two that re-arm each other, cannot run forever.
const maxRearms = 2

// pooledID reports whether a scheduled (non-fixed) event with this id goes
// on a pooled, fire-and-forget event rather than an owned one. Pooled
// events have no handle, so actions that target them do nothing on both
// kernels.
func pooledID(id int) bool { return id%3 == 2 }

// diffAction is one scripted side effect a firing event performs.
type diffAction struct {
	kind   int
	target int // event id for disarm/reschedule/re-arm
	delay  float64
	newID  int          // id of the event a schedule action creates
	script []diffAction // the created event's own script
}

// diffEvent is one initially scheduled event: at an absolute time, or —
// when fixed — through AfterFixed with delay when.
type diffEvent struct {
	id     int
	when   float64
	fixed  bool
	script []diffAction
}

// diffProgram is a full randomized workload: initial events and probes,
// then RunUntil each horizon in turn, performing that horizon's pushes from
// outside any callback after it returns, then Run — or, when reset is set,
// Reset with events still pending.
type diffProgram struct {
	initial  []diffEvent
	probes   []float64 // probe intervals; probe i logs id -(i+1)
	horizons []float64
	pushes   [][]diffAction // pushes[i] runs after RunUntil(horizons[i])
	reset    bool
}

// diffLog records what a kernel did: the fired sequence, each
// disarm/reschedule/re-arm outcome in call order, and the clock and pending
// count after every RunUntil.
type diffLog struct {
	firedAt  []float64
	firedID  []int
	outcomes []bool
	stops    []float64 // Now, then Pending, after each RunUntil
	finalNow float64
	count    uint64
}

// genProgram derives a random workload from src. Delays come from a
// half-unit grid including zero, so same-instant ties are common. Most
// fixed-delay events share the program's τ; the rest change the delay while
// earlier ones may still be pending. A third of the programs add a
// tie-heavy phase, dozens of events at one instant, so siblings in the heap
// share a time and seq alone orders them. Half of the programs without
// probes also schedule at -0, +0 and +Inf, the edges of the heap's integer
// time key (a probe beside a pending +Inf event would tick forever).
func genProgram(src *rng.Source, canReset bool) diffProgram {
	var p diffProgram
	nextID := 0
	gridDelay := func() float64 { return float64(src.Intn(9)) * 0.5 }
	tau := gridDelay()
	fixedDelay := func() float64 {
		if src.Intn(4) == 0 {
			return gridDelay()
		}
		return tau
	}
	var genScript func(depth, n int) []diffAction
	genScript = func(depth, n int) []diffAction {
		out := make([]diffAction, 0, n)
		for i := 0; i < n; i++ {
			switch k := src.Intn(5); k {
			case actSchedule, actFixed:
				if depth >= 2 {
					continue
				}
				a := diffAction{kind: k, delay: gridDelay(), newID: nextID}
				if k == actFixed {
					a.delay = fixedDelay()
				}
				nextID++
				a.script = genScript(depth+1, src.Intn(4))
				out = append(out, a)
			case actCancel, actReschedule, actRearm:
				// Target any id allocated so far; some will already have
				// fired or been disarmed, some not created yet, and
				// fixed-delay and pooled ones have no handle — each case
				// must behave identically on both kernels.
				if nextID == 0 {
					continue
				}
				out = append(out, diffAction{kind: k, target: src.Intn(nextID), delay: gridDelay()})
			}
		}
		return out
	}
	for i, n := 0, 5+src.Intn(40); i < n; i++ {
		e := diffEvent{id: nextID, when: gridDelay() + gridDelay()}
		if src.Intn(3) == 0 {
			e.fixed, e.when = true, fixedDelay()
		}
		nextID++
		e.script = genScript(0, src.Intn(4))
		p.initial = append(p.initial, e)
	}
	if src.Intn(3) == 0 {
		when := gridDelay()
		for i, n := 0, 16+src.Intn(64); i < n; i++ {
			p.initial = append(p.initial, diffEvent{id: nextID, when: when, script: genScript(1, src.Intn(3))})
			nextID++
		}
	}
	for i, n := 0, src.Intn(3); i < n; i++ {
		p.probes = append(p.probes, 0.5+float64(src.Intn(4))*0.5)
	}
	if len(p.probes) == 0 && src.Intn(2) == 0 {
		for _, when := range []float64{math.Copysign(0, -1), 0, math.Inf(1)} {
			for i, n := 0, 1+src.Intn(4); i < n; i++ {
				p.initial = append(p.initial, diffEvent{id: nextID, when: when, script: genScript(0, src.Intn(4))})
				nextID++
			}
		}
	}
	// Horizons on the quarter-unit grid land both on event instants and
	// strictly between them.
	for i, n := 0, src.Intn(4); i < n; i++ {
		p.horizons = append(p.horizons, float64(src.Intn(40))*0.25)
		p.pushes = append(p.pushes, genScript(1, src.Intn(3)))
	}
	slices.Sort(p.horizons)
	p.reset = canReset && len(p.horizons) > 0 && src.Intn(2) == 0
	return p
}

// diffKernel is the surface replay drives; H is the kernel's handle to a
// cancellable event.
type diffKernel[H any] interface {
	Now() float64
	At(when float64, fn func())        // pooled, fire-and-forget
	Owned(when float64, fn func()) H   // cancellable
	Fixed(delay float64, fn func())    // fixed delay, fire-and-forget
	Cancel(h H) bool                   // disarm if queued
	Reschedule(h H, when float64) bool // move if queued
	Rearm(h H, when float64) bool      // arm again if not queued
	Probe(interval float64, fn func(now float64))
	RunUntil(horizon float64) error
	Run() error
	Pending() int
	Fired() uint64
}

// replay runs the workload on k and logs what it did.
func replay[H any](k diffKernel[H], p diffProgram) diffLog {
	var lg diffLog
	handles := make(map[int]H)
	rearms := make(map[int]int)
	var exec func(id int, script []diffAction) func()
	schedule := func(id int, when float64, script []diffAction) {
		if pooledID(id) {
			k.At(when, exec(id, script))
			return
		}
		handles[id] = k.Owned(when, exec(id, script))
	}
	perform := func(script []diffAction) {
		for _, a := range script {
			h, ok := handles[a.target]
			switch a.kind {
			case actSchedule:
				schedule(a.newID, k.Now()+a.delay, a.script)
			case actFixed:
				k.Fixed(a.delay, exec(a.newID, a.script))
			case actCancel:
				lg.outcomes = append(lg.outcomes, ok && k.Cancel(h))
			case actReschedule:
				lg.outcomes = append(lg.outcomes, ok && k.Reschedule(h, k.Now()+a.delay))
			case actRearm:
				ok = ok && rearms[a.target] < maxRearms && k.Rearm(h, k.Now()+a.delay)
				if ok {
					rearms[a.target]++
				}
				lg.outcomes = append(lg.outcomes, ok)
			}
		}
	}
	exec = func(id int, script []diffAction) func() {
		return func() {
			lg.firedAt = append(lg.firedAt, k.Now())
			lg.firedID = append(lg.firedID, id)
			perform(script)
		}
	}
	for _, e := range p.initial {
		if e.fixed {
			k.Fixed(e.when, exec(e.id, e.script))
		} else {
			schedule(e.id, e.when, e.script)
		}
	}
	for i, interval := range p.probes {
		id := -(i + 1)
		k.Probe(interval, func(now float64) {
			lg.firedAt = append(lg.firedAt, now)
			lg.firedID = append(lg.firedID, id)
		})
	}
	for i, h := range p.horizons {
		if err := k.RunUntil(h); err != nil {
			panic(err)
		}
		lg.stops = append(lg.stops, k.Now(), float64(k.Pending()))
		perform(p.pushes[i])
	}
	if !p.reset {
		if err := k.Run(); err != nil {
			panic(err)
		}
	}
	lg.finalNow = k.Now()
	lg.count = k.Fired()
	return lg
}

// diffCoverage counts how often the trials reach the FIFO's, the heap's
// and the owned events' edge cases, so the differential can prove it
// exercised each of them.
type diffCoverage struct {
	ties          int // a FIFO event and a heap event fired at one instant
	delayChange   int // AfterFixed fell back to the heap
	splitStop     int // RunUntil stopped with FIFO and heap events both pending
	probesOnly    int // a probe fired while the heap held only probes
	resetFIFO     int // Reset with FIFO entries pending
	siblingTies   int // a fire left two children of one heap parent at one time
	partialGroup  int // a fire left the heap's last parent with 1–3 children
	negZero       int // an event fired at -0
	posInf        int // an event fired at +Inf
	disarmQueued  int // an owned event disarmed while queued
	disarmInside  int // ...from inside an event callback
	rearmFired    int // an owned event armed again after it fired
	climbingRefil int // a pop's refilled event climbed at least one level
}

// fifoKernel adapts the Scheduler to diffKernel and records coverage.
type fifoKernel struct {
	*Scheduler
	cov       *diffCoverage
	lastAt    float64
	lastFixed int // 1 FIFO, 0 heap, -1 nothing fired yet
	depth     int // callbacks running
	fired     map[*Event]bool
	refill    *Event // the heap's last event before the current Step
}

func newFifoKernel(cov *diffCoverage) *fifoKernel {
	return &fifoKernel{Scheduler: NewScheduler(), cov: cov, lastFixed: -1, fired: make(map[*Event]bool)}
}

// run wraps fn as the callback of an event from the given queue (1 FIFO,
// 0 heap); ev is the owned event it belongs to, or nil.
func (k *fifoKernel) run(queue int, ev *Event, fn func()) func() {
	return func() {
		k.fire(queue)
		if ev != nil {
			k.fired[ev] = true
		}
		k.depth++
		fn()
		k.depth--
	}
}

func (k *fifoKernel) Fixed(delay float64, fn func()) {
	queue := 1
	if k.fixed.n > 0 && delay != k.fixed.delay {
		k.cov.delayChange++
		queue = 0 // falls back to the heap
	}
	k.AfterFixed(delay, k.run(queue, nil, fn))
}

func (k *fifoKernel) At(when float64, fn func()) {
	k.Scheduler.At(when, k.run(0, nil, fn))
}

func (k *fifoKernel) Owned(when float64, fn func()) *Event {
	ev := new(Event)
	ev.Bind(HandlerFunc(k.run(0, ev, fn)))
	k.Arm(ev, when)
	return ev
}

func (k *fifoKernel) Cancel(ev *Event) bool {
	if !k.Disarm(ev) {
		return false
	}
	k.cov.disarmQueued++
	if k.depth > 0 {
		k.cov.disarmInside++
	}
	return true
}

func (k *fifoKernel) Reschedule(ev *Event, when float64) bool {
	if !k.Disarm(ev) {
		return false
	}
	k.Arm(ev, when)
	return true
}

func (k *fifoKernel) Rearm(ev *Event, when float64) bool {
	if ev.Queued() {
		return false
	}
	if k.fired[ev] {
		k.cov.rearmFired++
	}
	k.Arm(ev, when)
	return true
}

// step notes the heap's last event, which a pop moves into the hole it
// leaves, then steps the scheduler.
func (k *fifoKernel) step() bool {
	k.refill = nil
	if n := len(k.queue); n > 1 {
		k.refill = k.queue[n-1]
	}
	return k.Step()
}

func (k *fifoKernel) Run() error {
	for k.step() {
	}
	return k.Scheduler.Run()
}

func (k *fifoKernel) RunUntil(horizon float64) error {
	for !k.Stopped() && k.nextDue(horizon) {
		k.step()
	}
	err := k.Scheduler.RunUntil(horizon) // nothing is due: it only moves the clock
	if k.fixed.n > 0 && len(k.queue) > k.periodicPending {
		k.cov.splitStop++
	}
	return err
}

// fire notes which queue the event now firing came from, the time it fired
// at, and the shape of the heap it left behind.
func (k *fifoKernel) fire(fixed int) {
	now := k.Now()
	if k.lastFixed >= 0 && k.lastFixed != fixed && k.lastAt == now {
		k.cov.ties++
	}
	k.lastAt, k.lastFixed = now, fixed
	if now == 0 && math.Signbit(now) {
		k.cov.negZero++
	}
	if math.IsInf(now, 1) {
		k.cov.posInf++
	}
	q := k.queue
	if fixed == 0 && k.refill != nil {
		// The pop sent its hole down to a leaf, which has no children. If
		// the refilled event sits at a slot that has one, it climbed.
		if j := int(k.refill.pos) - 1; 4*j+1 < len(q) {
			k.cov.climbingRefil++
		}
	}
	if len(q) > 1 && (len(q)-1)%4 != 0 {
		k.cov.partialGroup++
	}
	for c := 1; c < len(q); c += 4 {
		if siblingTie(q[c:min(c+4, len(q))]) {
			k.cov.siblingTies++
			break
		}
	}
}

// siblingTie reports whether two events of a child group share a time.
func siblingTie(group []*Event) bool {
	for i, a := range group {
		for _, b := range group[i+1:] {
			if a.when == b.when {
				return true
			}
		}
	}
	return false
}

func (k *fifoKernel) Probe(interval float64, fn func(now float64)) {
	k.Every(interval, func(now float64) {
		if k.fixed.n > 0 && k.periodicPending == len(k.queue) {
			k.cov.probesOnly++
		}
		k.fire(0)
		fn(now)
	})
}

// legacyKernel adapts the container/heap kernel: fixed-delay events are
// plain After calls, and a cancellable event is a box holding its current
// timer, which a re-arm replaces with a fresh timer for the same callback.
type legacyKernel struct{ *legacyScheduler }

type legacyOwned struct{ t *legacyTimer }

func (k legacyKernel) At(when float64, fn func()) { k.legacyScheduler.At(when, fn) }

func (k legacyKernel) Owned(when float64, fn func()) *legacyOwned {
	return &legacyOwned{t: k.legacyScheduler.At(when, fn)}
}

func (k legacyKernel) Fixed(delay float64, fn func()) { k.After(delay, fn) }

func (k legacyKernel) Cancel(h *legacyOwned) bool { return k.legacyScheduler.Cancel(h.t) }

func (k legacyKernel) Reschedule(h *legacyOwned, when float64) bool {
	return k.legacyScheduler.Reschedule(h.t, when)
}

func (k legacyKernel) Rearm(h *legacyOwned, when float64) bool {
	if h.t.active() {
		return false
	}
	h.t = k.legacyScheduler.At(when, h.t.fn)
	return true
}

func (k legacyKernel) Probe(interval float64, fn func(now float64)) { k.Every(interval, fn) }

// checkSameLog fails the test where two replays of one workload differ.
func checkSameLog(t *testing.T, trial int, got, want diffLog) {
	t.Helper()
	if got.count != want.count || got.finalNow != want.finalNow {
		t.Fatalf("trial %d: fired %d events ending at %v, legacy fired %d ending at %v",
			trial, got.count, got.finalNow, want.count, want.finalNow)
	}
	if len(got.firedID) != len(want.firedID) {
		t.Fatalf("trial %d: %d fired log entries vs legacy %d", trial, len(got.firedID), len(want.firedID))
	}
	for i := range got.firedID {
		if got.firedID[i] != want.firedID[i] || got.firedAt[i] != want.firedAt[i] {
			t.Fatalf("trial %d: fire %d = (t=%v, id=%d), legacy (t=%v, id=%d)",
				trial, i, got.firedAt[i], got.firedID[i], want.firedAt[i], want.firedID[i])
		}
	}
	if !slices.Equal(got.outcomes, want.outcomes) {
		t.Fatalf("trial %d: op outcomes %v, legacy %v", trial, got.outcomes, want.outcomes)
	}
	if !slices.Equal(got.stops, want.stops) {
		t.Fatalf("trial %d: (now, pending) after each RunUntil %v, legacy %v", trial, got.stops, want.stops)
	}
}

func TestDifferentialKernelEquivalence(t *testing.T) {
	src := rng.New(20260805)
	var cov diffCoverage
	for trial := 0; trial < 300; trial++ {
		tr := src.SplitIndexed("trial", trial)
		first, second := genProgram(tr, true), genProgram(tr, false)

		// One scheduler replays both workloads, reset in between; the
		// legacy side starts each on a fresh scheduler.
		k := newFifoKernel(&cov)
		got := replay[*Event](k, first)
		checkSameLog(t, trial, got, replay[*legacyOwned](legacyKernel{newLegacyScheduler()}, first))
		if k.fixed.n > 0 {
			cov.resetFIFO++
		}
		k.Reset()
		k.lastFixed = -1
		got = replay[*Event](k, second)
		checkSameLog(t, trial, got, replay[*legacyOwned](legacyKernel{newLegacyScheduler()}, second))
	}
	for name, n := range map[string]int{
		"FIFO/heap same-instant ties":               cov.ties,
		"delay changes while FIFO pending":          cov.delayChange,
		"RunUntil stops between FIFO and heap":      cov.splitStop,
		"probe-only heap with FIFO pending":         cov.probesOnly,
		"Reset with FIFO pending":                   cov.resetFIFO,
		"heap siblings tied on time":                cov.siblingTies,
		"a partial last child group":                cov.partialGroup,
		"events at -0":                              cov.negZero,
		"events at +Inf":                            cov.posInf,
		"owned events disarmed while queued":        cov.disarmQueued,
		"owned events disarmed inside a callback":   cov.disarmInside,
		"owned events re-armed after they fired":    cov.rearmFired,
		"pops whose refilled event climbed a level": cov.climbingRefil,
	} {
		if n == 0 {
			t.Errorf("no trial covered %s", name)
		}
	}
	t.Logf("coverage: %+v", cov)
}

// TestLessMaskMatchesNodeLess holds siftDown's branch-free selection to
// nodeLess over the times the kernel admits: random pairs, and pairs built
// from the edges of the integer time key — equal times, -0 against +0,
// +Inf, subnormals, the largest finite time — crossed with extreme seqs.
func TestLessMaskMatchesNodeLess(t *testing.T) {
	check := func(a, b Event) {
		t.Helper()
		m := lessMask(timeKey(a.when), a.seq, timeKey(b.when), b.seq)
		if want := nodeLess(&a, &b); m != 0 && m != ^uint64(0) || (m != 0) != want {
			t.Fatalf("lessMask((%v, %d), (%v, %d)) = %#x, nodeLess = %v", a.when, a.seq, b.when, b.seq, m, want)
		}
	}
	times := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022, // largest subnormal, smallest normal
		0.5, 1, math.Nextafter(1, 2), 1e300, math.MaxFloat64, math.Inf(1),
	}
	seqs := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for _, at := range times {
		for _, bt := range times {
			for _, as := range seqs {
				for _, bs := range seqs {
					check(Event{when: at, seq: as}, Event{when: bt, seq: bs})
				}
			}
		}
	}

	// Random admissible times: any non-negative, non-NaN bit pattern, or a
	// value from a small grid so that equal times are common.
	src := rng.New(20261017)
	randTime := func() float64 {
		if src.Intn(2) == 0 {
			return float64(src.Intn(4)) * 0.5
		}
		for {
			if f := math.Float64frombits(src.Uint64() &^ (1 << 63)); !math.IsNaN(f) {
				return f
			}
		}
	}
	randSeq := func() uint64 {
		if src.Intn(2) == 0 {
			return uint64(src.Intn(4))
		}
		return src.Uint64()
	}
	for i := 0; i < 200000; i++ {
		check(Event{when: randTime(), seq: randSeq()}, Event{when: randTime(), seq: randSeq()})
	}
}
