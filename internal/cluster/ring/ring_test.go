package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// keys returns a deterministic pseudo-fingerprint population.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("worker-%d", i)
	}
	return out
}

// TestRingDeterministicAcrossBuilds is the cross-process placement
// property: two rings built independently from the same member set — in
// different orders, with duplicates — agree on every key's owner and on
// the full successor order. Placement must be a pure function of the
// member set, because every gateway and every worker derives the ring
// locally from the registry's member list.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := members(7)
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]string(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Duplicates and empty IDs must not perturb placement.
		shuffled = append(shuffled, base[rng.Intn(len(base))], "")
		a := New(base)
		b := New(shuffled)
		for _, k := range keys(500) {
			ao, aok := a.Owner(k)
			bo, bok := b.Owner(k)
			if !aok || !bok || ao != bo {
				t.Fatalf("trial %d: owner(%s) differs: %q vs %q", trial, k[:12], ao, bo)
			}
			as, bs := a.Successors(k, 0), b.Successors(k, 0)
			if len(as) != len(bs) {
				t.Fatalf("successor count differs: %v vs %v", as, bs)
			}
			for i := range as {
				if as[i] != bs[i] {
					t.Fatalf("successor order differs at %d: %v vs %v", i, as, bs)
				}
			}
		}
	}
}

// TestRingLeaveOnlyMovesDepartedKeys is the strict half of the
// bounded-churn invariant: removing one member moves exactly the keys
// that member owned — every other key keeps its owner.
func TestRingLeaveOnlyMovesDepartedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	population := keys(2000)
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6) // 3..8 members
		ms := members(n)
		before := New(ms)
		departed := ms[rng.Intn(n)]
		var survivors []string
		for _, m := range ms {
			if m != departed {
				survivors = append(survivors, m)
			}
		}
		after := New(survivors)
		moved := 0
		for _, k := range population {
			ob, _ := before.Owner(k)
			oa, _ := after.Owner(k)
			if ob == oa {
				continue
			}
			moved++
			if ob != departed {
				t.Fatalf("trial %d: key %s moved %q -> %q but %q did not leave", trial, k[:12], ob, oa, departed)
			}
			// The key's new owner must be its pre-departure successor:
			// that is what lets the gateway hand a dead worker's jobs to
			// ring successors and find them again by pure recomputation.
			succ := before.Successors(k, 2)
			if len(succ) < 2 || succ[1] != oa {
				t.Fatalf("trial %d: key %s moved to %q, want pre-departure successor %q", trial, k[:12], oa, succ)
			}
		}
		if moved == 0 {
			t.Fatalf("trial %d: nothing moved when %q left (expected ~1/%d of %d keys)", trial, departed, n, len(population))
		}
	}
}

// TestRingBoundedChurn is the probabilistic half: one join moves roughly
// 1/N of a fixed key population, and everything that moves lands on the
// joiner. The bound is 2x the expectation — loose enough to be stable
// across hash functions, tight enough to catch a broken ring (a modulo
// shard moves ~(N-1)/N of the keys on a membership change).
func TestRingBoundedChurn(t *testing.T) {
	population := keys(4000)
	for _, n := range []int{3, 5, 8} {
		ms := members(n)
		before := New(ms)
		joiner := "worker-joiner"
		after := New(append(append([]string(nil), ms...), joiner))
		moved := 0
		for _, k := range population {
			ob, _ := before.Owner(k)
			oa, _ := after.Owner(k)
			if ob == oa {
				continue
			}
			moved++
			if oa != joiner {
				t.Fatalf("n=%d: key %s moved %q -> %q, but only moves onto the joiner are allowed", n, k[:12], ob, oa)
			}
		}
		expected := float64(len(population)) / float64(n+1)
		if got := float64(moved); got > 2*expected {
			t.Fatalf("n=%d: join moved %d keys, want <= 2x expectation %.0f", n, moved, expected)
		}
		if moved == 0 {
			t.Fatalf("n=%d: join moved nothing", n)
		}
	}
}

// TestRingBalance sanity-checks the virtual-node count: with the default
// vnodes every member owns a non-trivial share of a large population.
func TestRingBalance(t *testing.T) {
	ms := members(5)
	r := New(ms)
	counts := map[string]int{}
	population := keys(5000)
	for _, k := range population {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatal("owner not found on a populated ring")
		}
		counts[o]++
	}
	for _, m := range ms {
		share := float64(counts[m]) / float64(len(population))
		if share < 0.05 {
			t.Fatalf("member %s owns %.1f%% of keys — ring is badly unbalanced: %v", m, 100*share, counts)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	var nilRing *Ring
	if _, ok := nilRing.Owner("abc"); ok {
		t.Fatal("nil ring reported an owner")
	}
	if nilRing.Len() != 0 || nilRing.Successors("abc", 3) != nil {
		t.Fatal("nil ring not empty")
	}
	empty := New(nil)
	if _, ok := empty.Owner("abc"); ok {
		t.Fatal("empty ring reported an owner")
	}
	one := New([]string{"solo"})
	o, ok := one.Owner("abc")
	if !ok || o != "solo" {
		t.Fatalf("single-member ring: owner %q ok=%v", o, ok)
	}
	if s := one.Successors("abc", 5); len(s) != 1 || s[0] != "solo" {
		t.Fatalf("single-member successors: %v", s)
	}
	// Successors: index 0 is the owner, all entries distinct.
	r := New(members(4))
	for _, k := range keys(50) {
		s := r.Successors(k, 0)
		o, _ := r.Owner(k)
		if len(s) != 4 || s[0] != o {
			t.Fatalf("successors %v, owner %q", s, o)
		}
		seen := map[string]bool{}
		for _, m := range s {
			if seen[m] {
				t.Fatalf("duplicate member in successors: %v", s)
			}
			seen[m] = true
		}
	}
}
