package buffer

import (
	"math"
	"testing"
	"testing/quick"

	"tempriv/internal/metrics"
	"tempriv/internal/packet"
	"tempriv/internal/queueing"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
)

type delivery struct {
	at        float64
	seq       uint32
	preempted bool
}

func collector(sched *sim.Scheduler) (Forward, *[]delivery) {
	var out []delivery
	return func(p *packet.Packet, preempted bool) {
		out = append(out, delivery{at: sched.Now(), seq: p.Truth.Seq, preempted: preempted})
	}, &out
}

func TestUnlimitedReleasesAfterExactDelay(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewUnlimited(sched, fwd)
	if err != nil {
		t.Fatal(err)
	}
	sched.At(1, func() { buf.Admit(packet.New(1, 0, 1), 10) })
	sched.At(2, func() { buf.Admit(packet.New(1, 1, 2), 3) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(*out))
	}
	// Packet 1 (admitted t=2, delay 3) leaves at 5; packet 0 at 11.
	if (*out)[0].seq != 1 || (*out)[0].at != 5 {
		t.Fatalf("first delivery = %+v, want seq 1 at t=5", (*out)[0])
	}
	if (*out)[1].seq != 0 || (*out)[1].at != 11 {
		t.Fatalf("second delivery = %+v, want seq 0 at t=11", (*out)[1])
	}
	for _, d := range *out {
		if d.preempted {
			t.Fatal("unlimited buffer reported a preemption")
		}
	}
}

func TestUnlimitedReordersPackets(t *testing.T) {
	// §3.2: independent delays break arrival ordering. Verify that a later
	// packet with a shorter delay overtakes an earlier one.
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewUnlimited(sched, fwd)
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() { buf.Admit(packet.New(1, 0, 0), 100) })
	sched.At(50, func() { buf.Admit(packet.New(1, 1, 50), 1) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if (*out)[0].seq != 1 {
		t.Fatal("later short-delay packet did not overtake")
	}
}

func TestUnlimitedOccupancyMatchesMMInf(t *testing.T) {
	// Poisson(λ=1) arrivals with Exp(mean 5) delays: steady-state occupancy
	// must average ρ = 5 (§4 M/M/∞ result).
	sched := sim.NewScheduler()
	buf, err := NewUnlimited(sched, func(*packet.Packet, bool) {})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	const lambda, meanDelay, horizon = 1.0, 5.0, 50000.0
	var arrive func()
	seq := uint32(0)
	arrive = func() {
		if sched.Now() >= horizon {
			return
		}
		buf.Admit(packet.New(1, seq, sched.Now()), src.Exponential(meanDelay))
		seq++
		sched.After(src.ExponentialRate(lambda), arrive)
	}
	sched.After(src.ExponentialRate(lambda), arrive)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	avg := buf.Stats().Occupancy.Average(horizon)
	if math.Abs(avg-lambda*meanDelay) > 0.3 {
		t.Fatalf("average occupancy = %v, want ≈ %v", avg, lambda*meanDelay)
	}
}

func TestDropTailDropsWhenFull(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewDropTail(sched, fwd, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		buf.Admit(packet.New(1, 0, 0), 100)
		buf.Admit(packet.New(1, 1, 0), 100)
		buf.Admit(packet.New(1, 2, 0), 100) // full → dropped
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(*out))
	}
	s := buf.Stats()
	if s.Drops != 1 || s.Arrivals != 3 || s.Departures != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.DropRate(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("drop rate = %v, want 1/3", got)
	}
	for _, d := range *out {
		if d.seq == 2 {
			t.Fatal("dropped packet was delivered")
		}
	}
}

func TestDropTailDropRateMatchesErlangLoss(t *testing.T) {
	// M/M/k/k: empirical blocking must match E(ρ, k) (§4 eq. 5).
	const lambda, meanDelay, k, horizon = 1.0, 5.0, 3, 200000.0
	sched := sim.NewScheduler()
	buf, err := NewDropTail(sched, func(*packet.Packet, bool) {}, k)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(37)
	seq := uint32(0)
	var arrive func()
	arrive = func() {
		if sched.Now() >= horizon {
			return
		}
		buf.Admit(packet.New(1, seq, sched.Now()), src.Exponential(meanDelay))
		seq++
		sched.After(src.ExponentialRate(lambda), arrive)
	}
	sched.After(src.ExponentialRate(lambda), arrive)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	want, err := queueing.ErlangLoss(lambda*meanDelay, k)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Stats().DropRate()
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical drop rate %v, Erlang loss %v", got, want)
	}
}

func TestPreemptiveNeverDropsAndCapsOccupancy(t *testing.T) {
	const k = 3
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewPreemptive(sched, fwd, k, ShortestRemaining{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	src := rng.New(2)
	for i := 0; i < n; i++ {
		i := i
		sched.At(float64(i), func() {
			buf.Admit(packet.New(1, uint32(i), float64(i)), src.Exponential(30))
			if buf.Len() > k {
				t.Errorf("occupancy %d exceeds capacity %d", buf.Len(), k)
			}
		})
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != n {
		t.Fatalf("deliveries = %d, want %d (no drops ever)", len(*out), n)
	}
	s := buf.Stats()
	if s.Drops != 0 {
		t.Fatalf("preemptive buffer dropped %d packets", s.Drops)
	}
	if s.Preemptions == 0 {
		t.Fatal("overloaded preemptive buffer recorded no preemptions")
	}
	if s.Departures != n {
		t.Fatalf("departures = %d, want %d", s.Departures, n)
	}
}

func TestPreemptiveEvictsShortestRemaining(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewPreemptive(sched, fwd, 2, ShortestRemaining{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		buf.Admit(packet.New(1, 0, 0), 50) // releases at 50
		buf.Admit(packet.New(1, 1, 0), 20) // releases at 20 ← shortest remaining
		buf.Admit(packet.New(1, 2, 0), 99) // forces preemption
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 3 {
		t.Fatalf("deliveries = %d", len(*out))
	}
	first := (*out)[0]
	if first.seq != 1 || first.at != 0 || !first.preempted {
		t.Fatalf("victim = %+v, want seq 1 preempted at t=0", first)
	}
	// The other two complete their full delays.
	if (*out)[1].seq != 0 || (*out)[1].at != 50 || (*out)[1].preempted {
		t.Fatalf("second delivery = %+v", (*out)[1])
	}
	if (*out)[2].seq != 2 || (*out)[2].at != 99 || (*out)[2].preempted {
		t.Fatalf("third delivery = %+v", (*out)[2])
	}
}

func TestPreemptionShortensEffectiveDelay(t *testing.T) {
	// §5.3: at high load, preemptions make realised delays much shorter
	// than the sampled distribution's mean.
	const k, meanDelay = 5, 30.0
	sched := sim.NewScheduler()
	buf, err := NewPreemptive(sched, func(*packet.Packet, bool) {}, k, ShortestRemaining{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		sched.At(float64(i), func() { // interarrival 1 ≪ mean delay 30
			buf.Admit(packet.New(1, uint32(i), float64(i)), src.Exponential(meanDelay))
		})
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	held := buf.Stats().HeldDelays.Mean()
	// Steady state: k slots drain at the arrival rate, so mean hold ≈ k/λ = 5.
	if held > meanDelay/3 {
		t.Fatalf("mean held delay %v not shortened (sampled mean %v)", held, meanDelay)
	}
	if math.Abs(held-float64(k)) > 2 {
		t.Fatalf("mean held delay %v, want ≈ k/λ = %d", held, k)
	}
}

func TestVictimSelectors(t *testing.T) {
	now := 100.0
	entries := []*Entry{
		{ArrivedAt: 90, ReleaseAt: 130}, // oldest
		{ArrivedAt: 95, ReleaseAt: 105}, // shortest remaining
		{ArrivedAt: 99, ReleaseAt: 180}, // longest remaining
	}
	src := rng.New(5)
	if got := (ShortestRemaining{}).Select(now, entries, src); got != 1 {
		t.Fatalf("ShortestRemaining = %d, want 1", got)
	}
	if got := (LongestRemaining{}).Select(now, entries, src); got != 2 {
		t.Fatalf("LongestRemaining = %d, want 2", got)
	}
	if got := (Oldest{}).Select(now, entries, src); got != 0 {
		t.Fatalf("Oldest = %d, want 0", got)
	}
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[(Random{}).Select(now, entries, src)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("Random selector index %d chosen %d/3000 times", i, c)
		}
	}
}

func TestSelectorByName(t *testing.T) {
	for _, name := range []string{"shortest-remaining", "longest-remaining", "oldest", "random"} {
		s, err := SelectorByName(name)
		if err != nil {
			t.Fatalf("SelectorByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("SelectorByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := SelectorByName("newest"); err == nil {
		t.Fatal("unknown selector accepted")
	}
}

func TestConstructorValidation(t *testing.T) {
	sched := sim.NewScheduler()
	fwd := func(*packet.Packet, bool) {}
	if _, err := NewUnlimited(nil, fwd); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewUnlimited(sched, nil); err == nil {
		t.Fatal("nil forward accepted")
	}
	if _, err := NewDropTail(sched, fwd, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewPreemptive(sched, fwd, 0, ShortestRemaining{}, rng.New(1)); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewPreemptive(sched, fwd, 1, nil, rng.New(1)); err == nil {
		t.Fatal("nil selector accepted")
	}
	if _, err := NewPreemptive(sched, fwd, 1, ShortestRemaining{}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	sched := sim.NewScheduler()
	fwd := func(*packet.Packet, bool) {}
	u, err := NewUnlimited(sched, fwd)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDropTail(sched, fwd, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPreemptive(sched, fwd, 1, ShortestRemaining{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if u.Name() != "unlimited" || d.Name() != "drop-tail" || p.Name() != "preemptive" {
		t.Fatalf("names = %q %q %q", u.Name(), d.Name(), p.Name())
	}
	if d.Capacity() != 1 || p.Capacity() != 1 {
		t.Fatal("capacity accessors wrong")
	}
	if p.Selector().Name() != "shortest-remaining" {
		t.Fatal("selector accessor wrong")
	}
}

// Property: conservation — for any admission pattern, arrivals equal
// departures + drops + still-buffered, and a preemptive buffer never holds
// more than its capacity.
func TestConservationProperty(t *testing.T) {
	f := func(delays []uint8, capRaw uint8, kind uint8) bool {
		if len(delays) == 0 {
			return true
		}
		capacity := int(capRaw%8) + 1
		sched := sim.NewScheduler()
		fwd := func(*packet.Packet, bool) {}
		var buf Policy
		var err error
		switch kind % 3 {
		case 0:
			buf, err = NewUnlimited(sched, fwd)
		case 1:
			buf, err = NewDropTail(sched, fwd, capacity)
		default:
			buf, err = NewPreemptive(sched, fwd, capacity, ShortestRemaining{}, rng.New(9))
		}
		if err != nil {
			return false
		}
		for i, d := range delays {
			i, d := i, d
			sched.At(float64(i), func() {
				buf.Admit(packet.New(1, uint32(i), float64(i)), float64(d))
			})
		}
		// Run only half the horizon so some packets are still buffered.
		if err := sched.RunUntil(float64(len(delays)) / 2); err != nil {
			return false
		}
		s := buf.Stats()
		if s.Arrivals != s.Departures+s.Drops+uint64(buf.Len()) {
			return false
		}
		if kind%3 == 2 && buf.Len() > capacity {
			return false
		}
		// Drain and re-check.
		if err := sched.Run(); err != nil {
			return false
		}
		return s.Arrivals == s.Departures+s.Drops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEvacuateCancelsAndReturnsAll(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewUnlimited(sched, fwd)
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		for i := 0; i < 5; i++ {
			buf.Admit(packet.New(1, uint32(i), 0), 100)
		}
	})
	var evacuated []*packet.Packet
	sched.At(10, func() { evacuated = buf.Evacuate() })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(evacuated) != 5 {
		t.Fatalf("evacuated %d, want 5", len(evacuated))
	}
	if len(*out) != 0 {
		t.Fatalf("%d packets forwarded after evacuation", len(*out))
	}
	if buf.Len() != 0 {
		t.Fatalf("buffer still holds %d", buf.Len())
	}
	// The release events were cancelled: the simulation ended at t=10.
	if sched.Now() != 10 {
		t.Fatalf("simulation ran to %v, want 10", sched.Now())
	}
	// Stats: evacuated packets are neither departures nor drops.
	s := buf.Stats()
	if s.Arrivals != 5 || s.Departures != 0 || s.Drops != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEvacuateEmptyBuffer(t *testing.T) {
	sched := sim.NewScheduler()
	buf, err := NewPreemptive(sched, func(*packet.Packet, bool) {}, 3, ShortestRemaining{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Evacuate(); len(got) != 0 {
		t.Fatalf("evacuated %d from empty buffer", len(got))
	}
}

func TestBufferUsableAfterEvacuate(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewDropTail(sched, fwd, 4)
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		buf.Admit(packet.New(1, 0, 0), 50)
		_ = buf.Evacuate()
		buf.Admit(packet.New(1, 1, 0), 5)
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 1 || (*out)[0].seq != 1 || (*out)[0].at != 5 {
		t.Fatalf("post-evacuation delivery = %+v", *out)
	}
}

// TestBurkeTheoremDepartures validates the §4 tandem argument empirically:
// the departure process of an M/M/∞ delaying buffer fed by Poisson(λ)
// arrivals is itself Poisson(λ) — exponential inter-departures with mean
// 1/λ and unit coefficient of variation.
func TestBurkeTheoremDepartures(t *testing.T) {
	const lambda, meanDelay, horizon = 0.5, 30.0, 100000.0
	sched := sim.NewScheduler()
	var departures []float64
	buf, err := NewUnlimited(sched, func(*packet.Packet, bool) {
		departures = append(departures, sched.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(71)
	seq := uint32(0)
	var arrive func()
	arrive = func() {
		if sched.Now() >= horizon {
			return
		}
		buf.Admit(packet.New(1, seq, sched.Now()), src.Exponential(meanDelay))
		seq++
		sched.After(src.ExponentialRate(lambda), arrive)
	}
	sched.After(src.ExponentialRate(lambda), arrive)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// Skip the warmup (buffer filling to steady state).
	warm := departures[len(departures)/10:]
	var w metrics.Welford
	for i := 1; i < len(warm); i++ {
		w.Add(warm[i] - warm[i-1])
	}
	if math.Abs(w.Mean()-1/lambda) > 0.1 {
		t.Fatalf("inter-departure mean %v, want %v (Burke: rate preserved)", w.Mean(), 1/lambda)
	}
	cv := w.Std() / w.Mean()
	if math.Abs(cv-1) > 0.05 {
		t.Fatalf("inter-departure CV %v, want ≈ 1 (Burke: Poisson departures)", cv)
	}
}

// TestTandemBuffersBothPoisson chains two M/M/∞ buffers: by Burke's theorem
// the second sees Poisson arrivals too, so both occupancies average their
// own ρ (§4's tandem-network model).
func TestTandemBuffersBothPoisson(t *testing.T) {
	const lambda, mean1, mean2, horizon = 0.5, 20.0, 40.0, 100000.0
	sched := sim.NewScheduler()
	delaySrc := rng.New(74)
	var second *Unlimited
	first, err := NewUnlimited(sched, func(p *packet.Packet, _ bool) {
		second.Admit(p, delaySrc.Exponential(mean2))
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err = NewUnlimited(sched, func(*packet.Packet, bool) {})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(73)
	seq := uint32(0)
	var arrive func()
	arrive = func() {
		if sched.Now() >= horizon {
			return
		}
		first.Admit(packet.New(1, seq, sched.Now()), src.Exponential(mean1))
		seq++
		sched.After(src.ExponentialRate(lambda), arrive)
	}
	sched.After(src.ExponentialRate(lambda), arrive)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	occ1 := first.Stats().Occupancy.Average(horizon)
	occ2 := second.Stats().Occupancy.Average(horizon)
	if math.Abs(occ1-lambda*mean1) > 0.5 {
		t.Fatalf("first buffer occupancy %v, want ≈ %v", occ1, lambda*mean1)
	}
	if math.Abs(occ2-lambda*mean2) > 0.8 {
		t.Fatalf("second buffer occupancy %v, want ≈ %v (Burke tandem)", occ2, lambda*mean2)
	}
}

// TestResetClearsStateAndWarmsPool drives a buffer through a full run,
// resets it alongside its scheduler, and requires a second run to replay a
// fresh buffer's behaviour exactly while the steady-state admit/release
// cycle stays allocation-free on the warmed entry pool.
func TestResetClearsStateAndWarmsPool(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewDropTail(sched, fwd, 4)
	if err != nil {
		t.Fatal(err)
	}
	load := func() {
		for i := 0; i < 20; i++ {
			i := i
			sched.At(float64(i), func() { buf.Admit(packet.New(1, uint32(i), sched.Now()), 3) })
		}
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
	load()
	want := append([]delivery(nil), (*out)...)
	wantStats := *buf.Stats()

	sched.Reset()
	buf.Reset()
	if got := *buf.Stats(); got != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("occupancy after Reset: %d", buf.Len())
	}
	*out = (*out)[:0]
	load()
	if len(*out) != len(want) {
		t.Fatalf("replay delivered %d packets, fresh delivered %d", len(*out), len(want))
	}
	for i := range want {
		if (*out)[i] != want[i] {
			t.Fatalf("replay delivery %d = %+v, fresh %+v", i, (*out)[i], want[i])
		}
	}
	if got := *buf.Stats(); got != wantStats {
		t.Fatalf("replay stats %+v, fresh %+v", got, wantStats)
	}

	// Steady state on the warm pool: admit/release cycles allocate nothing.
	sched.Reset()
	buf.Reset()
	p := packet.New(1, 0, 0)
	allocs := testing.AllocsPerRun(200, func() {
		buf.Admit(p, 1)
		for sched.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("warm admit/release cycle allocates %v times per op, want 0", allocs)
	}
}

// TestResetSurvivesMidFlightEntries resets a buffer that still holds
// packets (timers pending) and checks the entries are recycled, not leaked
// into the next run.
func TestResetSurvivesMidFlightEntries(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	buf, err := NewUnlimited(sched, fwd)
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		for i := 0; i < 8; i++ {
			buf.Admit(packet.New(1, uint32(i), 0), 100)
		}
	})
	if err := sched.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Fatalf("occupancy before reset = %d, want 8", buf.Len())
	}
	sched.Reset()
	buf.Reset()
	if buf.Len() != 0 {
		t.Fatalf("occupancy after reset = %d", buf.Len())
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 0 {
		t.Fatalf("pre-reset packets delivered after reset: %d", len(*out))
	}
}

// TestEntryChunkAllocatesOnce: a fresh buffer mints its entries in chunks,
// each as large as all earlier ones together (4, 4, 8, 16, …), so handing
// out n fresh entries costs one allocation per chunk, and binding each
// entry's release handler costs none. The pool never holds more than about
// twice the entries handed out.
func TestEntryChunkAllocatesOnce(t *testing.T) {
	const runs = 10
	for _, tc := range []struct{ n, chunks int }{
		{1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {16, 3}, {17, 4}, {100, 6},
	} {
		fresh := make([]base, runs+1) // AllocsPerRun calls its function runs+1 times
		k := 0
		allocs := testing.AllocsPerRun(runs, func() {
			b := &fresh[k]
			k++
			for i := 0; i < tc.n; i++ {
				b.acquireEntry()
			}
		})
		if allocs != float64(tc.chunks) {
			t.Errorf("%d fresh entries: %v allocations, want %d (one per chunk)", tc.n, allocs, tc.chunks)
		}
		if minted := fresh[0].minted; minted > max(4, 2*tc.n) {
			t.Errorf("%d fresh entries: the pool minted %d", tc.n, minted)
		}
	}
}

// TestWarmRCADCycleAllocationFree: once a k = 10 RCAD buffer has been
// through one cycle, the next ones — admitting twelve packets, so the last
// two each preempt a victim, then releasing the rest as their delays expire
// — allocate nothing, and its pool holds 16 entries.
func TestWarmRCADCycleAllocationFree(t *testing.T) {
	sched := sim.NewScheduler()
	buf, err := NewPreemptive(sched, func(*packet.Packet, bool) {}, 10, ShortestRemaining{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	delays := rng.New(2)
	p := packet.New(1, 0, 0)
	cycle := func() {
		for i := 0; i < 12; i++ {
			buf.Admit(p, delays.Exponential(30))
		}
		for sched.Step() {
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm RCAD admit/preempt/release cycle allocates %v times, want 0", allocs)
	}
	if got := buf.Stats().Preemptions; got != 2*102 {
		t.Errorf("preemptions = %d, want %d", got, 2*102)
	}
	if buf.minted != 16 {
		t.Errorf("a k = 10 buffer minted %d entries, want 16", buf.minted)
	}
}

// BenchmarkWarmAdmitRelease measures the pooled admit/release fast path the
// engine hits for every forwarded packet once the entry pool is warm.
func BenchmarkWarmAdmitRelease(b *testing.B) {
	sched := sim.NewScheduler()
	buf, err := NewUnlimited(sched, func(*packet.Packet, bool) {})
	if err != nil {
		b.Fatal(err)
	}
	p := packet.New(1, 0, 0)
	buf.Admit(p, 1)
	for sched.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Admit(p, 1)
		for sched.Step() {
		}
	}
}
