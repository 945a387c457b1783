package network

// Tests of borrowed results: RunBorrowed lends each run's Result to a
// callback, and the engine cache refills it for a later run, on any engine
// of any structure. What the callback sees must equal a fresh Run.

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"tempriv/internal/delay"
	"tempriv/internal/rng"
	"tempriv/internal/telemetry"
	"tempriv/internal/trace"
	"tempriv/internal/traffic"
)

// idleResults reports the number of results a cache holds for borrowers.
func idleResults(c *EngineCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// borrowedRun runs a freshly built config through RunBorrowed and returns
// the signature, trace and samples taken inside the callback, and the
// result the callback saw.
func borrowedRun(t *testing.T, cache *EngineCache, build func() (Config, observers)) (string, []trace.Event, []telemetry.Sample, *Result) {
	t.Helper()
	cfg, obs := build()
	var sig string
	var lent *Result
	err := RunBorrowed(cache, cfg, func(res *Result) error {
		sig, lent = resultSignature(t, res), res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	var samples []telemetry.Sample
	if obs.trace != nil {
		events = obs.trace.Events()
	}
	if obs.samples != nil {
		samples = obs.samples.Samples()
	}
	return sig, events, samples, lent
}

// TestBorrowedReuseAcrossConfigsMatchesRun is the property test behind
// result recycling. One cache runs a random sequence of configs over
// structures drawn across Line, Grid and Figure 1, the four built-in
// policies, capacity and rate control, alternating runCached (an owned
// result) with RunBorrowed. The one idle result is therefore refilled by a
// different engine and structure from step to step, with one to four
// flows, count bounds going up and down, and horizon runs among them. Every borrowed
// result, trace and sample series must equal a fresh Run, and so must
// every owned result between them, which the cache never pools.
func TestBorrowedReuseAcrossConfigsMatchesRun(t *testing.T) {
	src := rng.New(20261018)
	policies := []PolicyKind{PolicyForward, PolicyUnlimited, PolicyDropTail, PolicyRCAD}
	cache := NewEngineCache()
	var pooled *Result
	horizons := 0
	const steps = 48
	for step := 0; step < steps; step++ {
		sh := reuseShape{topo: src.Intn(3), policy: policies[src.Intn(len(policies))], capacity: 3 + src.Intn(8)}
		sh.rateCtl = sh.policy == PolicyRCAD && src.Bernoulli(0.5)
		build := randomReuseConfig(t, sh, src, src.Bernoulli(0.5))
		if cfg, _ := build(); cfg.Horizon > 0 {
			horizons++
		}
		wantSig, wantEvents, wantSamples := observedRun(t, Run, build)
		var sig string
		var events []trace.Event
		var samples []telemetry.Sample
		path := "runCached"
		if step%2 == 1 {
			path = "RunBorrowed"
			var lent *Result
			sig, events, samples, lent = borrowedRun(t, cache, build)
			if pooled == nil {
				pooled = lent
			} else if lent != pooled {
				t.Fatalf("step %d: a serial borrower got a new result instead of the idle one", step)
			}
		} else {
			sig, events, samples = observedRun(t, func(c Config) (*Result, error) { return runCached(cache, c) }, build)
		}
		switch {
		case sig != wantSig:
			t.Fatalf("step %d %s %+v: result diverged from Run\nwant: %.300s\ngot:  %.300s", step, path, sh, wantSig, sig)
		case !reflect.DeepEqual(events, wantEvents):
			t.Fatalf("step %d %s %+v: trace diverged from Run", step, path, sh)
		case !reflect.DeepEqual(samples, wantSamples):
			t.Fatalf("step %d %s %+v: samples diverged from Run", step, path, sh)
		}
		if n := idleResults(cache); n != 1 && step > 0 {
			t.Fatalf("step %d: cache holds %d idle results after serial runs, want 1", step, n)
		}
	}
	if horizons == 0 {
		t.Fatal("no horizon-bound run drawn; the sequence does not cover append growth")
	}

	// A horizon-bound run that creates nothing: a fresh result's
	// Deliveries stays nil, so the refilled one, which kept its backing
	// array, must read nil too.
	starved := func() (Config, observers) {
		topo, sources := shapeTopology(t, 0)
		return Config{
			Topology: topo,
			Sources:  []Source{{Node: sources[0], Process: mustProc(traffic.NewPeriodic(10))}},
			Policy:   PolicyUnlimited,
			Delay:    mustDist(delay.NewExponential(3)),
			Horizon:  1,
		}, observers{}
	}
	want, _, _ := observedRun(t, Run, starved)
	if !strings.Contains(want, `"Deliveries":null`) {
		t.Fatalf("the starved run delivered something: %.200s", want)
	}
	if got, _, _, lent := borrowedRun(t, cache, starved); got != want || lent != pooled {
		t.Fatalf("starved borrowed run diverged from Run (same idle result: %v)\nwant: %.300s\ngot:  %.300s", lent == pooled, want, got)
	}
}

// TestBorrowedConcurrentRunsMatchRun shares one cache between goroutines
// borrowing results over three structures at once: every result must
// match Run, and the cache may end up holding no more idle results than
// there are goroutines. CI runs it under -race -count=10.
func TestBorrowedConcurrentRunsMatchRun(t *testing.T) {
	shapes := []reuseShape{
		{topo: 2, policy: PolicyRCAD, capacity: 10},
		{topo: 0, policy: PolicyUnlimited, capacity: 10},
		{topo: 1, policy: PolicyDropTail, capacity: 4},
	}
	const goroutines, runs = 4, 6
	type job struct {
		cfg       Config
		want, got string
		err       error
	}
	src := rng.New(8)
	jobs := make([][]job, goroutines)
	for g := range jobs {
		for i := 0; i < runs; i++ {
			build := randomReuseConfig(t, shapes[(g+i)%len(shapes)], src, src.Bernoulli(0.5))
			want, _, _ := observedRun(t, Run, build)
			cfg, _ := build()
			jobs[g] = append(jobs[g], job{cfg: cfg, want: want})
		}
	}
	cache := NewEngineCache()
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(mine []job) {
			defer wg.Done()
			for i := range mine {
				j := &mine[i]
				j.err = RunBorrowed(cache, j.cfg, func(res *Result) (err error) {
					j.got, err = signature(res)
					return err
				})
			}
		}(jobs[g])
	}
	wg.Wait()
	for g := range jobs {
		for i, j := range jobs[g] {
			if j.err != nil {
				t.Fatalf("goroutine %d run %d: %v", g, i, j.err)
			}
			if j.got != j.want {
				t.Fatalf("goroutine %d run %d: borrowed result diverged from Run", g, i)
			}
		}
	}
	if n := idleResults(cache); n < 1 || n > goroutines {
		t.Fatalf("cache holds %d idle results with %d goroutines", n, goroutines)
	}
}

// TestBorrowedResultAllocatesOnce gates the borrowed result path on Figure
// 1 with a warm engine and a pooled result, the collector off: a borrowed
// run of 1200 packets per source allocates exactly as many objects and
// bytes as one of 300, so nothing a borrowed run allocates grows with its
// length. (Both counts exceed 255, so boxing them into the config
// fingerprint allocates alike.)
func TestBorrowedResultAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	large, small := figure1Config(t, PolicyRCAD, 1200), figure1Config(t, PolicyRCAD, 300)
	cache := NewEngineCache()
	use := func(res *Result) error {
		if len(res.Deliveries) == 0 {
			return fmt.Errorf("no deliveries")
		}
		return nil
	}
	// Warm the engine, its arena and the pooled result at the larger size.
	if err := RunBorrowed(cache, large, use); err != nil {
		t.Fatal(err)
	}
	// As in testing.AllocsPerRun: one P, so a sync.Pool always serves from
	// the same local pool, and no collection empties it mid-measurement.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	measure := func(cfg Config) (objects, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := RunBorrowed(cache, cfg, use); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	measure(small) // settles anything the first run of a new size allocates
	smallObjects, smallBytes := measure(small)
	largeObjects, largeBytes := measure(large)
	if largeObjects != smallObjects || largeBytes != smallBytes {
		t.Errorf("%d borrowed runs allocate %d objects, %d bytes at 1200 packets per source and %d objects, %d bytes at 300: the borrowed result path grows with run length",
			runs, largeObjects, largeBytes, smallObjects, smallBytes)
	}
}

// TestWarmRearmAllocationFree pins the in-place substreams: rearming a
// warm engine, with a lossy channel and RCAD victim streams to reseed,
// into a pooled result allocates nothing.
func TestWarmRearmAllocationFree(t *testing.T) {
	cfg := figure1Config(t, PolicyRCAD, 50)
	cfg.Channel = &ChannelConfig{LossP: 0.1}
	cfg.ARQ = DefaultARQ()
	cache := NewEngineCache()
	if err := RunBorrowed(cache, cfg, func(*Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	resolved, err := resolveConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := structureOf(&resolved)
	r, res := cache.checkout(id), cache.borrow()
	if r == nil || res == nil {
		t.Fatal("the cache kept no engine or no result")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.rearm(resolved, id, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm rearm allocates %v times, want 0", allocs)
	}
}
