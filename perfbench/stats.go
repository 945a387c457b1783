package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A coarse ladder keeps the reported level fixed for a workload
// whose sample count varies a little between seeds.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond a reported tail.
const minBeyondTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples: ceil(p/100 · n), at least 1. The small slack keeps a product
// such as 99.9 · 10000 from rounding up past an exact integer.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyondTail of n samples strictly beyond its rank. When n is too small
// for any ladder entry it falls back to the median and reports ok=false.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - rankOf(n, p); b >= minBeyondTail {
			return p, b, true
		}
	}
	return 50, n - rankOf(n, 50), false
}

// median is percentile(xs, 50) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total length covered by ivs, counting overlapping
// stretches once.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of [start, end) its
// children cover. Children may overlap each other (parallel replicates),
// so their intervals are merged before subtracting, and any part of a
// child outside the parent is ignored.
func selfTime(start, end int64, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < start {
			c.start = start
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return end - start - unionLength(clipped)
}

// procID identifies one process life: a PID plus its start time, so a
// reused PID is not mistaken for the process that held it before.
type procID struct {
	pid       int
	startTime uint64
}

// counterTrack accumulates the growth of a monotonic per-process counter
// (CPU ticks, write syscalls) for one role across process restarts. A
// restarted process counts from zero, so its whole value is growth since
// the previous observation; whatever the old process did between its last
// observation and its exit is not observable and is not counted.
type counterTrack struct {
	seen  bool
	id    procID
	last  uint64
	total uint64
}

// observe records the counter value v read from process id.
func (c *counterTrack) observe(id procID, v uint64) {
	switch {
	case !c.seen:
		c.seen = true
	case id != c.id || v < c.last:
		c.total += v
	default:
		c.total += v - c.last
	}
	c.id, c.last = id, v
}
