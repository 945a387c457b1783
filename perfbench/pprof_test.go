package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"tempriv/internal/network.(*runner).deliver":           "network",
		"tempriv/internal/sim.(*Kernel).Run":                   "sim",
		"tempriv/internal/sim.(*heap[go.shape.int]).push":      "sim",
		"tempriv/internal/experiment.parallelFor.func1":        "experiment",
		"tempriv/internal/cluster/gateway.(*Gateway).dispatch": "cluster/gateway",
		"runtime.mapaccess2_fast64":                            "",
		"main.runSweep":                                        "",
		"tempriv.Run":                                          "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeChargesInnermostModule(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// Runtime map work under the network's hop delivery is the network's.
		{[]string{"runtime.mapaccess2_fast64", "tempriv/internal/network.(*runner).deliver",
			"tempriv/internal/sim.(*Kernel).Run", "tempriv/internal/experiment.Fig2a"}, "network"},
		// Allocation under the buffer's insert is the buffer's, even though
		// network and sim frames sit further out.
		{[]string{"runtime.mallocgc", "tempriv/internal/buffer.(*RCAD).Insert",
			"tempriv/internal/network.(*runner).arrive"}, "buffer"},
		// Grouped modules land in their layer's bucket.
		{[]string{"tempriv/internal/queueing.ErlangB", "tempriv/internal/adversary.NewAdaptive"}, "adversary"},
		{[]string{"tempriv/internal/report.(*Table).Render", "tempriv/internal/scenario.Run"}, "experiment"},
		{[]string{"tempriv/internal/routing.BuildTree"}, "network"},
		// A module outside the named layers is "other".
		{[]string{"tempriv/internal/delay.(*Exponential).Sample", "tempriv/internal/network.(*runner).arrive"}, "other"},
		// No tempriv frame at all: runtime background work.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{nil, "gc"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	stacks := []profileStack{
		{frames: []string{"tempriv/internal/sim.(*Kernel).Run"}, weight: 30},
		{frames: []string{"runtime.mallocgc", "tempriv/internal/network.(*runner).deliver"}, weight: 50},
		{frames: []string{"runtime.gcBgMarkWorker"}, weight: 20},
	}
	got := cpuShares(stacks)
	want := map[string]float64{"sim": 0.3, "network": 0.5, "gc": 0.2}
	var sum float64
	for _, b := range shareNames {
		sum += got[b]
		if math.Abs(got[b]-want[b]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", b, got[b], want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

//go:noinline
func burnForProfile(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestDecodeRealProfile checks the decoder against the runtime's own
// profile encoding: the burning function must dominate the samples.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burning int64
	for _, s := range stacks {
		total += s.weight
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".burnForProfile") {
				burning += s.weight
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no samples decoded")
	}
	if float64(burning) < 0.5*float64(total) {
		t.Errorf("burnForProfile has %d of %d ns; want the majority", burning, total)
	}
}
