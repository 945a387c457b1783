package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tempriv/internal/scenario"
)

// coldRate is serve-cold's offered load in jobs per second: about a
// quarter of what one temprivd with production flags sustains on the
// 2-CPU machine the benchmark was calibrated on. At half, overlapping jobs
// amplified every slowdown of the host into the latency (README.md).
const coldRate = 10.0

// coldWarmups is how many jobs each serve-cold set-up runs before timing.
const coldWarmups = 4

// runServeCold drives one temprivd started with the production flags
// (-cache -journal -chunks, default workers) with an open-loop Poisson
// stream of distinct small specs: every job is a cache miss that runs the
// engine and writes through journal, cache and chunk store.
func runServeCold(cfg config, procs *procSet, runDir string, cal *calibrator) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	c := newClient()
	schedRand := newRand(cfg.seed, 2)
	// Every spec of the run gets its own seed, so no two are equal and
	// every job misses the cache.
	dealer := newSpecDealer(newRand(cfg.seed, 1), cfg.seed<<20+1)
	draw := dealer.deal

	if err := startSpinner(procs, cfg.nproc, filepath.Join(runDir, "spinner.log")); err != nil {
		return nil, err
	}
	var (
		warmSpecs []scenario.Spec
		warmJobs  []jobResult
	)
	// setUp starts a fresh temprivd with empty state and runs the warm-up
	// jobs through it.
	setUp := func(i int) (*daemon, error) {
		dir := filepath.Join(runDir, fmt.Sprintf("cold%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d, err := procs.start("temprivd", filepath.Join(cfg.binDir, "temprivd"), []string{
			"-addr", addr,
			"-cache", filepath.Join(dir, "cache"),
			"-journal", filepath.Join(dir, "journal"),
			"-chunks", filepath.Join(dir, "chunks"),
		}, filepath.Join(dir, "temprivd.log"), cfg.nproc, "http://"+addr)
		if err != nil {
			return nil, err
		}
		if err := waitStatus(c, d.url+"/readyz", 30*time.Second); err != nil {
			return nil, err
		}
		ws := draw(coldWarmups)
		bodies, err := specBodies(ws)
		if err != nil {
			return nil, err
		}
		for k := range ws {
			j := runJob(c, d.url, bodies[k], time.Now())
			j.spec = len(warmSpecs)
			warmSpecs = append(warmSpecs, ws[k])
			warmJobs = append(warmJobs, j)
		}
		return d, nil
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if d, err = setUp(i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			procs.stop(d)
		}
	}
	out.note("load: open loop, Poisson at %.1f jobs/s for %v, distinct small specs (cache misses); temprivd -cache -journal -chunks, workers=GOMAXPROCS=%d; goodput limit %v",
		coldRate, cfg.seconds, cfg.nproc, requestLimit)

	phase := func(traced bool) (*servePhase, []scenario.Spec, error) {
		offs := poissonSchedule(schedRand, coldRate, cfg.seconds)
		specs := draw(len(offs))
		bodies, err := specBodies(specs)
		if err != nil {
			return nil, nil, err
		}
		p, err := runPhase(c, d.url, []*daemon{d}, bodies, offs, cfg.seconds, traced, cal,
			func(j *jobResult) string { return d.url + "/v1/traces/" + j.id },
			profileSeconds(cfg))
		return p, specs, err
	}
	plain, plainSpecs, err := phase(false)
	if err != nil {
		return nil, err
	}
	var traced *servePhase
	var tracedSpecs []scenario.Spec
	if cfg.trace {
		// The traced phase gets a fresh daemon: the cache's put cost grows
		// with its entry count, and trace.overhead must compare like with
		// like.
		procs.stop(d)
		if d, err = setUp(setupRepeats); err != nil {
			return nil, err
		}
		if traced, tracedSpecs, err = phase(true); err != nil {
			return nil, err
		}
	}
	procs.stop(d)

	// Output checks, outside the timed phases: every served table against
	// an in-process run of the same spec.
	all := append(append(append([]scenario.Spec(nil), warmSpecs...), plainSpecs...), tracedSpecs...)
	digests, fps, err := verifySpecs(all, cfg.nproc)
	if err != nil {
		return nil, err
	}
	wantAt := func(offset int) func(j *jobResult) (tableDigest, string) {
		return func(j *jobResult) (tableDigest, string) { return digests[offset+j.spec], fps[offset+j.spec] }
	}
	checkJobs(warmJobs, wantAt(0), false, "warm-up", out)
	plainFailed := checkPhase(plain, wantAt(len(warmSpecs)), false, "untraced", out)
	if hits := plain.delta("temprivd_cache_hits_total", "temprivd"); hits > 0 {
		out.problem("serve-cold: %v cache hits; every job must miss; run void", hits)
	}

	if !cfg.trace {
		e2eMetrics(plain, plainFailed, requestLimit, []string{"temprivd"}, out)
		out.metrics["setup_s"] = median(setups)
		return out, nil
	}
	checkPhase(traced, wantAt(len(warmSpecs)+len(plainSpecs)), false, "traced", out)
	if hits := traced.delta("temprivd_cache_hits_total", "temprivd"); hits > 0 {
		out.problem("serve-cold: %v cache hits in the traced phase; run void", hits)
	}
	servingLayers(plain, traced, []string{"temprivd"}, "", cfg, out)
	return out, nil
}
