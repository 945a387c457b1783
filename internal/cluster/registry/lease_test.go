package registry

// Lease-protocol property test: a worker heartbeating at TTL/3 — the
// client's cadence — must never be expired by the registry, even when
// the heartbeat timing jitters and the shared clock jumps forward in
// bounded skips. And the membership epoch must move only on real
// membership changes (join, leave, expiry), never on a steady-state
// heartbeat — the gateway rebuilds its ring on every epoch bump, so a
// chatty epoch would churn placement for no reason.

import (
	"math/rand"
	"testing"
	"time"

	"tempriv/internal/clock"
)

func TestLeaseNeverExpiresUnderHeartbeatJitter(t *testing.T) {
	const ttl = 30 * time.Second
	for _, seed := range []int64{1, 2, 3, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewManual(time.Unix(1_700_000_000, 0))
		r := New(Options{LeaseTTL: ttl, Clock: clk})

		if _, _, err := r.Register(Worker{ID: "w1", URL: "http://w1", Capacity: 2}); err != nil {
			t.Fatal(err)
		}
		_, epochAfterJoin := r.Alive()

		// 500 heartbeat rounds. Each round advances the clock by the
		// TTL/3 base interval plus bounded jitter (at most TTL/6, so the
		// effective gap never reaches TTL/2), and occasionally injects an
		// extra clock skip — skewed wall clocks, GC pauses, a VM freeze —
		// still bounded well inside the remaining lease headroom.
		for round := 0; round < 500; round++ {
			gap := ttl/3 + time.Duration(rng.Int63n(int64(ttl/6)))
			clk.Advance(gap)
			if rng.Intn(10) == 0 {
				// Clock skip: up to another TTL/3. Worst case total gap
				// is TTL/3 + TTL/6 + TTL/3 = 5/6 TTL — inside the lease.
				clk.Advance(time.Duration(rng.Int63n(int64(ttl / 3))))
			}

			// The registry may sweep at any moment relative to the
			// heartbeat; model the adversarial order (sweep first).
			if expired := r.Sweep(); len(expired) != 0 {
				t.Fatalf("seed %d round %d: lease expired after %v gap (expired %v)", seed, round, gap, expired)
			}
			if _, _, err := r.Register(Worker{ID: "w1", URL: "http://w1", Capacity: 2}); err != nil {
				t.Fatalf("seed %d round %d: heartbeat rejected: %v", seed, round, err)
			}

			alive, epoch := r.Alive()
			if len(alive) != 1 || alive[0].ID != "w1" {
				t.Fatalf("seed %d round %d: alive = %v, want [w1]", seed, round, alive)
			}
			if epoch != epochAfterJoin {
				t.Fatalf("seed %d round %d: epoch moved %d -> %d on steady-state heartbeats", seed, round, epochAfterJoin, epoch)
			}
		}
	}
}

func TestEpochBumpsOnlyOnMembershipChange(t *testing.T) {
	const ttl = 30 * time.Second
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	r := New(Options{LeaseTTL: ttl, Clock: clk})

	_, e1, err := r.Register(Worker{ID: "w1", URL: "http://w1", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := r.Register(Worker{ID: "w2", URL: "http://w2", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("join did not bump epoch: %d -> %d", e1, e2)
	}

	// Steady heartbeats: epoch frozen.
	for i := 0; i < 10; i++ {
		clk.Advance(ttl / 3)
		if _, e, err := r.Register(Worker{ID: "w1", URL: "http://w1", Capacity: 2}); err != nil || e != e2 {
			t.Fatalf("heartbeat bumped epoch to %d (want %d), err=%v", e, e2, err)
		}
		if _, e, err := r.Register(Worker{ID: "w2", URL: "http://w2", Capacity: 2}); err != nil || e != e2 {
			t.Fatalf("heartbeat bumped epoch to %d (want %d), err=%v", e, e2, err)
		}
	}

	// A worker moving to a new dispatch address is a real change.
	_, e3, err := r.Register(Worker{ID: "w2", URL: "http://w2-new", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e3 <= e2 {
		t.Fatalf("address change did not bump epoch: %d -> %d", e2, e3)
	}

	// Expiry is a real change: silence w1 past the TTL.
	for i := 0; i < 5; i++ {
		clk.Advance(ttl / 3)
		if _, _, err := r.Register(Worker{ID: "w2", URL: "http://w2-new", Capacity: 2}); err != nil {
			t.Fatal(err)
		}
		r.Sweep()
	}
	alive, e4 := r.Alive()
	if len(alive) != 1 || alive[0].ID != "w2" {
		t.Fatalf("alive = %v, want [w2] after w1 went silent", alive)
	}
	if e4 <= e3 {
		t.Fatalf("expiry did not bump epoch: %d -> %d", e3, e4)
	}

	// Deregister too.
	r.Deregister("w2")
	if _, e5 := r.Alive(); e5 <= e4 {
		t.Fatalf("deregister did not bump epoch: %d -> %d", e4, e5)
	}
}
