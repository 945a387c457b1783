package sim

// Differential check of the refactored kernel against the pre-refactor
// container/heap kernel (legacy_kernel_test.go): randomized workloads of
// schedules, fixed-delay schedules, cancels, reschedules and periodic
// probes — including same-instant ties and actions taken from inside firing
// callbacks — run through RunUntil horizons, a Reset and a final Run, and
// must produce the identical fired-event sequence on both. Every
// Cancel/Reschedule call must report the identical outcome. Fixed-delay
// events go through AfterFixed on the kernel and through plain After on the
// legacy side, so the FIFO is held to the heap's (time, seq) order. This is
// the determinism contract the kernel rides on: identical (time, seq) total
// order means sweep tables, trace goldens and scenario fingerprint cache
// keys stay byte-identical.

import (
	"math"
	"slices"
	"testing"

	"tempriv/internal/rng"
)

// diffAction kinds.
const (
	actSchedule   = iota // After(delay) with its own script
	actCancel            // Cancel(target)
	actReschedule        // Reschedule(target, now+delay)
	actFixed             // AfterFixed(delay) with its own script; no handle
)

// diffAction is one scripted side effect a firing event performs.
type diffAction struct {
	kind   int
	target int // timer id for cancel/reschedule
	delay  float64
	newID  int          // id of the timer a schedule action creates
	script []diffAction // the created timer's own script
}

// diffEvent is one initially scheduled timer: at an absolute time, or —
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
// cancel/reschedule outcome in call order, and the clock and pending count
// after every RunUntil.
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
			switch k := src.Intn(4); k {
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
			case actCancel, actReschedule:
				// Target any id allocated so far; some will already have
				// fired or been cancelled, some not created yet, and
				// fixed-delay ones have no handle — each case must behave
				// identically on both kernels.
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

// diffKernel is the surface replay drives; H is the kernel's timer handle.
type diffKernel[H any] interface {
	Now() float64
	At(when float64, fn func()) H
	After(delay float64, fn func()) H
	Fixed(delay float64, fn func())
	Cancel(h H) bool
	Reschedule(h H, when float64) bool
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
	var exec func(id int, script []diffAction) func()
	perform := func(script []diffAction) {
		for _, a := range script {
			switch a.kind {
			case actSchedule:
				handles[a.newID] = k.After(a.delay, exec(a.newID, a.script))
			case actFixed:
				k.Fixed(a.delay, exec(a.newID, a.script))
			case actCancel:
				h, ok := handles[a.target]
				lg.outcomes = append(lg.outcomes, ok && k.Cancel(h))
			case actReschedule:
				h, ok := handles[a.target]
				lg.outcomes = append(lg.outcomes, ok && k.Reschedule(h, k.Now()+a.delay))
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
			handles[e.id] = k.At(e.when, exec(e.id, e.script))
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

// diffCoverage counts how often the trials reach the FIFO's and the heap's
// edge cases, so the differential can prove it exercised each of them.
type diffCoverage struct {
	ties         int // a FIFO event and a heap event fired at one instant
	delayChange  int // AfterFixed fell back to the heap
	splitStop    int // RunUntil stopped with FIFO and heap events both pending
	probesOnly   int // a probe fired while the heap held only probes
	resetFIFO    int // Reset with FIFO entries pending
	siblingTies  int // a fire left two children of one heap parent at one time
	partialGroup int // a fire left the heap's last parent with 1–3 children
	negZero      int // an event fired at -0
	posInf       int // an event fired at +Inf
}

// fifoKernel adapts the Scheduler to diffKernel and records coverage.
type fifoKernel struct {
	*Scheduler
	cov       *diffCoverage
	lastAt    float64
	lastFixed int // 1 FIFO, 0 heap, -1 nothing fired yet
}

func (k *fifoKernel) Fixed(delay float64, fn func()) {
	queue := 1
	if k.fixed.n > 0 && delay != k.fixed.delay {
		k.cov.delayChange++
		queue = 0 // falls back to the heap
	}
	k.AfterFixed(delay, func() {
		k.fire(queue)
		fn()
	})
}

func (k *fifoKernel) At(when float64, fn func()) Timer {
	return k.Scheduler.At(when, func() {
		k.fire(0)
		fn()
	})
}

func (k *fifoKernel) After(delay float64, fn func()) Timer {
	return k.At(k.Now()+delay, fn)
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

// siblingTie reports whether two nodes of a child group share a time.
func siblingTie(group []*timerNode) bool {
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

func (k *fifoKernel) RunUntil(horizon float64) error {
	err := k.Scheduler.RunUntil(horizon)
	if k.fixed.n > 0 && len(k.queue) > k.periodicPending {
		k.cov.splitStop++
	}
	return err
}

// legacyKernel adapts the container/heap kernel; fixed-delay events are
// plain After calls.
type legacyKernel struct{ *legacyScheduler }

func (k legacyKernel) Fixed(delay float64, fn func()) { k.After(delay, fn) }

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
		k := &fifoKernel{Scheduler: NewScheduler(), cov: &cov, lastFixed: -1}
		got := replay[Timer](k, first)
		checkSameLog(t, trial, got, replay[*legacyTimer](legacyKernel{newLegacyScheduler()}, first))
		if k.fixed.n > 0 {
			cov.resetFIFO++
		}
		k.Reset()
		k.lastFixed = -1
		got = replay[Timer](k, second)
		checkSameLog(t, trial, got, replay[*legacyTimer](legacyKernel{newLegacyScheduler()}, second))
	}
	for name, n := range map[string]int{
		"FIFO/heap same-instant ties":          cov.ties,
		"delay changes while FIFO pending":     cov.delayChange,
		"RunUntil stops between FIFO and heap": cov.splitStop,
		"probe-only heap with FIFO pending":    cov.probesOnly,
		"Reset with FIFO pending":              cov.resetFIFO,
		"heap siblings tied on time":           cov.siblingTies,
		"a partial last child group":           cov.partialGroup,
		"events at -0":                         cov.negZero,
		"events at +Inf":                       cov.posInf,
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
	check := func(a, b timerNode) {
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
					check(timerNode{when: at, seq: as}, timerNode{when: bt, seq: bs})
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
		check(timerNode{when: randTime(), seq: randSeq()}, timerNode{when: randTime(), seq: randSeq()})
	}
}
