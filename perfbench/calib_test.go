package main

import (
	"math"
	"testing"
	"time"
)

func TestCalKernelDependsOnlyOnSeed(t *testing.T) {
	if got := calKernel(calSeed); got != calSum {
		t.Fatalf("calKernel(calSeed) = %x, want %x", got, calSum)
	}
	if calKernel(calSeed+1) == calSum {
		t.Fatal("another seed gave the same checksum")
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// A machine twice as slow as the reference: times halve, and on the
	// closed-batch sweep the rates double; raw values are kept.
	m := map[string]float64{"setup_s": 2, "latency_p50_ms": 10, "cpu_ms_per_op": 8,
		"throughput_per_s": 40, "goodput_per_s": 30, "rss_peak_mb": 50}
	atReferenceSpeed(m, "sweep", 2)
	want := map[string]float64{"setup_s": 1, "latency_p50_ms": 5, "cpu_ms_per_op": 4,
		"throughput_per_s": 80, "goodput_per_s": 60, "rss_peak_mb": 50,
		"raw.setup_s": 2, "raw.latency_p50_ms": 10, "raw.cpu_ms_per_op": 8,
		"raw.throughput_per_s": 40, "raw.goodput_per_s": 30, "machine.slowdown": 2}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("sweep %s = %v, want %v", k, m[k], v)
		}
	}
	if _, ok := m["raw.latency_tail_ms"]; ok {
		t.Error("a metric the run did not report was made up")
	}

	// On an open-loop workload the offered rate sets the rates: they stay.
	m = map[string]float64{"latency_p50_ms": 10, "throughput_per_s": 40}
	atReferenceSpeed(m, "serve-cold", 2)
	if m["latency_p50_ms"] != 5 || m["throughput_per_s"] != 40 {
		t.Errorf("serve-cold: latency %v, throughput %v; want 5, 40", m["latency_p50_ms"], m["throughput_per_s"])
	}
}

func TestSplitSchedule(t *testing.T) {
	s := time.Second
	offs := []time.Duration{0, s / 2, 2 * s, 2*s + s/2, 3*s - 1, 9 * s, 10 * s}
	got := splitSchedule(offs, 5, 10*s)
	want := [][]time.Duration{{0, s / 2}, {0, s / 2, s - 1}, nil, nil, {s, 2 * s}}
	if len(got) != len(want) {
		t.Fatalf("%d segments, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("segment %d = %v, want %v", k, got[k], want[k])
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Errorf("segment %d = %v, want %v", k, got[k], want[k])
				break
			}
		}
	}
}
