package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// The host this benchmark was calibrated on changes the speed of its
// vCPUs by 20–25% from one minute to the next, and by 2x within an hour,
// with almost no steal time to show for it: other tenants' load on the
// same cores slows every instruction. Every CPU-bound figure of a run
// moves with it, and so the spread between runs of the same code would
// measure the host, not the program. Each run therefore measures the
// machine's current speed with a fixed calibration kernel that lives in
// the harness (so no change to the program can move it) and reports its
// CPU-bound figures at a reference speed: the speed at which one
// calibration slice takes calRefMS. The raw figures are printed beside
// them.

// calRefMS defines the reference speed: a calibration slice takes this
// long on a machine running at it. The value is a convention: about half
// of what slices took in the slow spells the benchmark's steadiness was
// measured in, which is roughly the calibration machine's fast state.
const calRefMS = 50.0

// calSlices is how many slices each measurement takes: before the
// set-up, between the serving workloads' segments and after the timed
// phase.
const calSlices = 3

// calKernel is the calibration work: a small discrete-event simulation
// — a binary heap of timed events, a map of node states, float
// arithmetic — the kinds of work the engine and the daemons spend their
// CPU on. It allocates only its initial state, so it sets off no
// garbage collection of its own. It returns a checksum of its state,
// which depends only on seed.
func calKernel(seed uint64) uint64 {
	const nodes, events, pending = 1024, 750_000, 1024
	type node struct {
		served uint64
		busy   float64
	}
	type event struct {
		at   float64
		node int
	}
	r := seed | 1
	uniform := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r>>11) / (1 << 53)
	}
	states := make(map[int]*node, nodes)
	for i := 0; i < nodes; i++ {
		states[i*7919] = &node{}
	}
	h := make([]*event, 0, pending)
	push := func(e *event) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() *event {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && h[c+1].at < h[c].at {
				c++
			}
			if h[i].at <= h[c].at {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		return top
	}
	for i := 0; i < pending; i++ {
		push(&event{at: uniform(), node: int(uniform() * nodes)})
	}
	var sum uint64
	for i := 0; i < events; i++ {
		// Each event is rescheduled in place: one node served, one new
		// arrival elsewhere.
		e := pop()
		n := states[e.node*7919]
		n.served++
		n.busy += -math.Log(1 - uniform())
		sum = sum*31 + n.served ^ uint64(n.busy)
		e.at += uniform() + n.busy*1e-6
		e.node = int(uniform() * nodes)
		push(e)
	}
	return sum
}

// calSeed is the seed every slice runs the kernel with.
const calSeed = 0x5eed

// calSum is calKernel(calSeed), computed once; every slice must
// reproduce it.
var calSum = calKernel(calSeed)

// calibrator accumulates a run's calibration slices.
type calibrator struct {
	nproc  int
	slices []float64 // wall ms of each slice
	cpu    []float64 // CPU ms per kernel of each slice
}

// slice runs calKernel on nproc goroutines at once, one per CPU the
// program under test may use, and records the wall time until all are
// done and the process's CPU time per kernel. The two differ when the
// CPUs are shared, not slowed: wall time then grows and CPU time does
// not.
func (c *calibrator) slice() error {
	sums := make([]uint64, c.nproc)
	var wg sync.WaitGroup
	cpu0 := selfCPUMS()
	start := time.Now()
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = calKernel(calSeed)
		}(i)
	}
	wg.Wait()
	c.slices = append(c.slices, float64(time.Since(start))/1e6)
	c.cpu = append(c.cpu, (selfCPUMS()-cpu0)/float64(c.nproc))
	for _, s := range sums {
		if s != calSum {
			return fmt.Errorf("calibration kernel checksum %x, want %x", s, calSum)
		}
	}
	return nil
}

// calWarmUp is how long a run's first measurement runs slices it does
// not record. A vCPU that has been idle can take a second to get a host
// CPU of its own again; until it does, parallel work runs at half speed.
const calWarmUp = 2 * time.Second

// measure runs slices for warmUp without recording them, then records n.
func (c *calibrator) measure(n int, warmUp time.Duration) error {
	warm := &calibrator{nproc: c.nproc}
	for start := time.Now(); time.Since(start) < warmUp; {
		if err := warm.slice(); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if err := c.slice(); err != nil {
			return err
		}
	}
	return nil
}

// slowdown is how many times slower than the reference speed the
// machine ran: the median slice's CPU time per kernel over calRefMS. CPU
// time, not wall time, because it counts only time spent running, so it
// measures how fast the CPUs were, not how they were shared.
func (c *calibrator) slowdown() float64 {
	if len(c.cpu) == 0 {
		return math.NaN()
	}
	return median(c.cpu) / calRefMS
}

// spread is the IQR of the slices' CPU times over their median, a
// measure of how much the machine's speed moved during the run.
func (c *calibrator) spread() float64 {
	s := append([]float64(nil), c.cpu...)
	sort.Float64s(s)
	if len(s) < 4 {
		return 0
	}
	return (s[rankOf(len(s), 75)-1] - s[rankOf(len(s), 25)-1]) / median(s)
}

// scaledTimes are the end-to-end metrics reported at the reference speed
// on every workload: CPU-bound times.
var scaledTimes = []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op"}

// scaledRates are the end-to-end rates reported at the reference speed on
// the closed-batch sweep, where they are the machine's capacity. On the
// open-loop workloads the offered rate, fixed in wall-clock time, sets
// them, and they stay as measured.
var scaledRates = []string{"throughput_per_s", "goodput_per_s"}

// atReferenceSpeed rescales a run's end-to-end metrics from a machine
// slowdown times slower than the reference speed to the reference speed,
// keeping each measured value as raw.<name>.
func atReferenceSpeed(m map[string]float64, workload string, slowdown float64) {
	rescale := func(name string, factor float64) {
		if v, ok := m[name]; ok {
			m["raw."+name] = v
			m[name] = v * factor
		}
	}
	for _, name := range scaledTimes {
		rescale(name, 1/slowdown)
	}
	if workload == "sweep" {
		for _, name := range scaledRates {
			rescale(name, slowdown)
		}
	}
	m["machine.slowdown"] = slowdown
}
