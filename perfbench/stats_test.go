package main

import "testing"

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 10000, p: 99.9, beyond: 10, ok: true},
		{n: 9999, p: 99, beyond: 99, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true},
		{n: 300, p: 95, beyond: 15, ok: true},
		{n: 200, p: 95, beyond: 10, ok: true},
		{n: 199, p: 90, beyond: 19, ok: true},
		{n: 40, p: 75, beyond: 10, ok: true},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 12, p: 50, beyond: 6, ok: false},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%v, %d beyond, ok=%v; want p%v, %d beyond, ok=%v",
				c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {100, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	// An engine span [0,100) with two parallel replicates [10,60) and
	// [20,70) and a render [80,90): children cover 60+10 = 70, self = 30.
	children := []interval{{10, 60}, {20, 70}, {80, 90}}
	if got := selfTime(0, 100, children); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	// A child nested entirely in another adds nothing.
	if got := selfTime(0, 100, []interval{{10, 60}, {20, 30}}); got != 50 {
		t.Errorf("nested selfTime = %d, want 50", got)
	}
	// Parts of children outside the parent are clipped.
	if got := selfTime(10, 50, []interval{{0, 20}, {40, 90}}); got != 20 {
		t.Errorf("clipped selfTime = %d, want 20", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("childless selfTime = %d, want 100", got)
	}
	// Touching intervals merge without double counting.
	if got := unionLength([]interval{{0, 10}, {10, 20}, {5, 15}}); got != 20 {
		t.Errorf("unionLength = %d, want 20", got)
	}
}

func TestCounterTrackAcrossRestarts(t *testing.T) {
	a := procID{pid: 100, startTime: 5000}
	b := procID{pid: 100, startTime: 9000} // the PID reused by a new process
	c := procID{pid: 230, startTime: 9100}

	var tr counterTrack
	tr.observe(a, 40) // baseline: nothing counted yet
	tr.observe(a, 55)
	if tr.total != 15 {
		t.Fatalf("same process delta = %d, want 15", tr.total)
	}
	tr.observe(b, 7) // restarted under the same PID: counts from zero
	if tr.total != 22 {
		t.Fatalf("after PID reuse = %d, want 22", tr.total)
	}
	tr.observe(b, 10)
	tr.observe(c, 3) // restarted under a new PID
	tr.observe(c, 3)
	if tr.total != 28 {
		t.Fatalf("after restart = %d, want 28", tr.total)
	}
}
