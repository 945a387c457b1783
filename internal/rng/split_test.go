package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// referenceSplit is the substream derivation SplitInto replaced: the label
// hashed by hash/fnv's FNV-1a into a newly allocated child.
func referenceSplit(s *Source, label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	x := h.Sum64()
	child := &Source{}
	for i := range child.state {
		seed := s.state[i] ^ x
		child.state[i] = splitMix64(&seed)
	}
	if child.state[0]|child.state[1]|child.state[2]|child.state[3] == 0 {
		child.state[0] = 1
	}
	return child
}

// randomLabel draws a string of up to 24 arbitrary bytes, '/' and
// non-UTF-8 bytes included.
func randomLabel(src *Source) string {
	b := make([]byte, src.Intn(25))
	for i := range b {
		b[i] = byte(src.Intn(256))
	}
	return string(b)
}

// TestSplitIntoMatchesReference holds the in-place derivations to the
// reference: for random parents, labels, names and indices — negative,
// extreme and random 64-bit ones included — SplitInto and Split must give
// the reference's state for the label, and SplitIndexedInto and
// SplitIndexed its state for fmt.Sprintf("%s/%d", name, index). A
// destination that aliases the parent must too.
func TestSplitIntoMatchesReference(t *testing.T) {
	src := New(20261018)
	edges := []int{0, 1, -1, 9, 10, -10, 99, 100, math.MaxInt32, math.MinInt32, math.MaxInt, math.MinInt, math.MinInt + 1}
	for trial := 0; trial < 2000; trial++ {
		parent := New(src.Uint64())
		label, name := randomLabel(src), randomLabel(src)
		index := int(src.Uint64())
		switch {
		case trial < len(edges):
			index = edges[trial]
		case trial%3 == 0:
			index = src.Intn(1000) - 500
		}

		want := referenceSplit(parent, label)
		var dst Source
		parent.SplitInto(&dst, label)
		alias := *parent
		alias.SplitInto(&alias, label)
		if dst != *want || *parent.Split(label) != *want || alias != *want {
			t.Fatalf("label %q: SplitInto %v, Split %v, aliased %v; reference %v", label, dst, *parent.Split(label), alias, *want)
		}

		want = referenceSplit(parent, fmt.Sprintf("%s/%d", name, index))
		parent.SplitIndexedInto(&dst, name, index)
		if dst != *want || *parent.SplitIndexed(name, index) != *want {
			t.Fatalf("name %q index %d: SplitIndexedInto %v, SplitIndexed %v; reference %v", name, index, dst, *parent.SplitIndexed(name, index), *want)
		}
	}
}

// TestSplitIntoAllocationFree gates the in-place derivations at zero
// allocations, the longest decimal index included.
func TestSplitIntoAllocationFree(t *testing.T) {
	parent := New(7)
	var dst Source
	allocs := testing.AllocsPerRun(100, func() {
		parent.SplitInto(&dst, "victim")
		parent.SplitIndexedInto(&dst, "node", 17)
		parent.SplitIndexedInto(&dst, "traffic", math.MinInt)
	})
	if allocs != 0 {
		t.Fatalf("SplitInto and SplitIndexedInto allocate %v times per call set, want 0", allocs)
	}
}
