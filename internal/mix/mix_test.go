package mix

import (
	"math"
	"testing"
	"testing/quick"

	"tempriv/internal/buffer"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
)

type delivered struct {
	at  float64
	seq uint32
}

func collector(sched *sim.Scheduler) (buffer.Forward, *[]delivered) {
	var out []delivered
	return func(p *packet.Packet, _ bool) {
		out = append(out, delivered{at: sched.Now(), seq: p.Truth.Seq})
	}, &out
}

func TestThresholdMixFlushesAtThreshold(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	m, err := NewThresholdMix(sched, fwd, 3, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		i := i
		sched.At(float64(i), func() { m.Admit(packet.New(1, uint32(i), float64(i)), 0) })
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 0 {
		t.Fatalf("mix flushed %d messages below threshold", len(*out))
	}
	sched.At(sched.Now()+1, func() { m.Admit(packet.New(1, 2, 0), 0) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 3 {
		t.Fatalf("flushed %d messages at threshold, want 3", len(*out))
	}
	if m.Len() != 0 {
		t.Fatalf("mix retained %d messages with pool 0", m.Len())
	}
}

func TestThresholdMixRetainsPool(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	m, err := NewThresholdMix(sched, fwd, 4, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		for i := 0; i < 6; i++ {
			m.Admit(packet.New(1, uint32(i), 0), 0)
		}
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 4 {
		t.Fatalf("flushed %d, want batch of 4", len(*out))
	}
	if m.Len() != 2 {
		t.Fatalf("pool holds %d, want 2", m.Len())
	}
}

func TestThresholdMixRandomizesOrder(t *testing.T) {
	// Over many flushes, the first released message must not always be the
	// first admitted (that would leak arrival order — the whole point of a
	// mix is to break it).
	firstIsOldest := 0
	const rounds = 200
	for r := 0; r < rounds; r++ {
		sched := sim.NewScheduler()
		fwd, out := collector(sched)
		m, err := NewThresholdMix(sched, fwd, 5, 0, rng.New(uint64(r)))
		if err != nil {
			t.Fatal(err)
		}
		sched.At(0, func() {
			for i := 0; i < 5; i++ {
				m.Admit(packet.New(1, uint32(i), 0), 0)
			}
		})
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		if (*out)[0].seq == 0 {
			firstIsOldest++
		}
	}
	// Expected ≈ rounds/5 = 40; demand it is far from "always".
	if firstIsOldest > rounds/2 {
		t.Fatalf("first-out was first-in %d/%d times: order not mixed", firstIsOldest, rounds)
	}
}

func TestTimedMixFlushesPeriodically(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	m, err := NewTimedMix(sched, fwd, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		i := i
		sched.At(float64(i), func() { m.Admit(packet.New(1, uint32(i), float64(i)), 0) })
	}
	sched.At(25, func() { m.Admit(packet.New(1, 5, 25), 0) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 6 {
		t.Fatalf("delivered %d, want 6", len(*out))
	}
	// First five flush at the t=10 tick. The chain then went idle (empty
	// buffer) and re-armed lazily on the t=25 admit, so the sixth flushes
	// one interval later at t=35 — every message waits at most interval.
	for _, d := range (*out)[:5] {
		if d.at != 10 {
			t.Fatalf("early message flushed at %v, want 10", d.at)
		}
	}
	if (*out)[5].at != 35 {
		t.Fatalf("late message flushed at %v, want 35", (*out)[5].at)
	}
}

func TestTimedMixDrainsWhenIdle(t *testing.T) {
	// The flush chain must not keep the event list alive forever after
	// traffic stops.
	sched := sim.NewScheduler()
	fwd, _ := collector(sched)
	m, err := NewTimedMix(sched, fwd, 5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	sched.At(1, func() { m.Admit(packet.New(1, 0, 1), 0) })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// Run returned, so the chain stopped. The single message flushed at the
	// first tick.
	if m.Len() != 0 {
		t.Fatalf("mix retained %d messages", m.Len())
	}
	if sched.Now() > 11 {
		t.Fatalf("flush chain ran until %v after traffic stopped", sched.Now())
	}
}

func TestTimedMixStop(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	m, err := NewTimedMix(sched, fwd, 5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sched.At(1, func() { m.Admit(packet.New(1, 0, 1), 0) })
	sched.At(2, func() { m.Stop() })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 0 {
		t.Fatal("stopped mix still flushed")
	}
}

func TestConstructorValidation(t *testing.T) {
	sched := sim.NewScheduler()
	fwd := func(*packet.Packet, bool) {}
	src := rng.New(1)
	if _, err := NewThresholdMix(sched, fwd, 0, 0, src); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := NewThresholdMix(sched, fwd, 1, -1, src); err == nil {
		t.Fatal("negative pool accepted")
	}
	if _, err := NewThresholdMix(nil, fwd, 1, 0, src); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewThresholdMix(sched, nil, 1, 0, src); err == nil {
		t.Fatal("nil forward accepted")
	}
	if _, err := NewThresholdMix(sched, fwd, 1, 0, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := NewTimedMix(sched, fwd, 0, src); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewTimedMix(sched, fwd, math.Inf(1), src); err == nil {
		t.Fatal("infinite interval accepted")
	}
}

func TestThresholdMixStats(t *testing.T) {
	sched := sim.NewScheduler()
	fwd := func(*packet.Packet, bool) {}
	tm, err := NewThresholdMix(sched, fwd, 2, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		tm.Admit(packet.New(1, 0, 0), 0)
		tm.Admit(packet.New(1, 1, 0), 0)
		tm.Admit(packet.New(1, 2, 0), 0)
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	s := tm.Stats()
	if s.Arrivals != 3 || s.Departures != 2 || s.Drops != 0 || s.Preemptions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLatencyVariance(t *testing.T) {
	if v := LatencyVariance([]float64{5, 5, 5}); v != 0 {
		t.Fatalf("constant latencies variance = %v", v)
	}
	if v := LatencyVariance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(v-4) > 1e-12 {
		t.Fatalf("variance = %v, want 4", v)
	}
}

// Property: a threshold mix conserves messages — arrivals equal departures
// plus the retained pool — for arbitrary admission counts.
func TestThresholdConservationProperty(t *testing.T) {
	f := func(count uint8, batchRaw, poolRaw uint8) bool {
		batch := int(batchRaw%5) + 1
		pool := int(poolRaw % 4)
		sched := sim.NewScheduler()
		fwd := func(*packet.Packet, bool) {}
		m, err := NewThresholdMix(sched, fwd, batch, pool, rng.New(uint64(count)))
		if err != nil {
			return false
		}
		n := int(count % 64)
		sched.At(0, func() {
			for i := 0; i < n; i++ {
				m.Admit(packet.New(1, uint32(i), 0), 0)
			}
		})
		if err := sched.Run(); err != nil {
			return false
		}
		s := m.Stats()
		return s.Arrivals == s.Departures+uint64(m.Len()) && m.Len() <= batch+pool
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMixEvacuate(t *testing.T) {
	sched := sim.NewScheduler()
	fwd, out := collector(sched)
	m, err := NewThresholdMix(sched, fwd, 10, 0, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	sched.At(0, func() {
		for i := 0; i < 4; i++ {
			m.Admit(packet.New(1, uint32(i), 0), 0)
		}
	})
	var got []*packet.Packet
	sched.At(1, func() { got = m.Evacuate() })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || m.Len() != 0 || len(*out) != 0 {
		t.Fatalf("evacuate: got %d, len %d, delivered %d", len(got), m.Len(), len(*out))
	}
}
