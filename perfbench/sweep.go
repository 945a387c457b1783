package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tempriv/internal/obs"
	"tempriv/internal/scenario"
)

// sweepReplicates is R for both sweep specs: each scenario.Run averages
// the study over R consecutive seeds, as `sweep -replicate R` does.
const sweepReplicates = 2

// sweepSpecs are the two specs one sweep round runs, in order: fig2a at
// the paper's parameters (the 30-run 1/λ sweep fig2b and fig3 share) and
// abl-linkloss, which takes the lossy-link and ARQ forwarding path fig2a
// never does. Only the base seed comes from the workload seed.
func sweepSpecs(seed uint64) []scenario.Spec {
	base := 1 + seed*1000
	var specs []scenario.Spec
	for i, id := range []string{"fig2a", "abl-linkloss"} {
		specs = append(specs, scenario.Spec{
			Version: scenario.CurrentVersion,
			Experiment: &scenario.ExperimentSpec{
				ID:         id,
				Seed:       base + uint64(i)*100,
				Replicates: sweepReplicates,
			},
		})
	}
	return specs
}

// tableDigest is the SHA-256 pair a result is compared by.
type tableDigest struct{ text, csv [32]byte }

func digestOf(o *scenario.Outcome) tableDigest {
	return tableDigest{sha256.Sum256(o.TableText), sha256.Sum256(o.TableCSV)}
}

// sweepPhase is one timed phase of the sweep workload. Every figure
// covers the rounds alone, not the calibration slices between them.
type sweepPhase struct {
	rounds    []float64 // wall ms of each round
	roundCPU  []float64 // CPU ms of each round
	okReps    int
	attempted int
	failed    int
	steal     float64
	mallocs   uint64
	allocB    uint64
	spans     spanStats
	profile   []byte
}

// rate is verified replicates per second of a median round.
func (ph *sweepPhase) rate() float64 {
	return float64(ph.okReps) / float64(len(ph.rounds)) / (median(ph.rounds) / 1000)
}

// runSweep drives scenario.Run in-process on the two sweep specs with
// ReplicateWorkers = nproc, round after round, for the timed phase.
func runSweep(cfg config, cal *calibrator) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	specs := sweepSpecs(cfg.seed)

	// Set-up: compute the reference digests at ReplicateWorkers = 1,
	// which also warms the engine's code paths and heap. Every set-up
	// must reproduce the same bytes.
	var refs []tableDigest
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var got []tableDigest
		for _, spec := range specs {
			o, err := scenario.Run(context.Background(), spec, scenario.Options{ReplicateWorkers: 1})
			if err != nil {
				return nil, fmt.Errorf("reference run of %s: %w", spec.Label(), err)
			}
			got = append(got, digestOf(o))
		}
		setups = append(setups, time.Since(start).Seconds())
		if refs != nil && fmt.Sprint(got) != fmt.Sprint(refs) {
			out.problem("reference tables differ between set-ups: the engine is not deterministic")
		}
		refs = got
	}
	out.note("load: closed batch, rounds of %s and %s at R=%d, ReplicateWorkers=%d, spec seeds %d and %d",
		specs[0].Experiment.ID, specs[1].Experiment.ID, sweepReplicates, cfg.nproc,
		specs[0].Experiment.Seed, specs[1].Experiment.Seed)

	plain, err := sweepRun(cfg, specs, refs, false, cal, out)
	if err != nil {
		return nil, err
	}
	if err := cal.measure(calSlices, 0); err != nil {
		return nil, err
	}
	repsPerRound := float64(len(specs) * sweepReplicates)
	if !cfg.trace {
		m := out.metrics
		m["setup_s"] = median(setups)
		m["throughput_per_s"] = plain.rate()
		// The sweep has no latency limit: every verified replicate counts.
		m["goodput_per_s"] = plain.rate()
		m["latency_p50_ms"] = median(plain.rounds)
		p, beyond, ok := tailPercentile(len(plain.rounds))
		m["latency_tail_ms"] = percentile(append([]float64(nil), plain.rounds...), p)
		m["latency_tail_pct"] = p
		out.note("latency: per round, n=%d, tail p%v with %d beyond (enough samples: %v)", len(plain.rounds), p, beyond, ok)
		m["cpu_ms_per_op"] = median(plain.roundCPU) / repsPerRound
		m["rss_peak_mb"] = selfPeakMiB()
		m["fail_ratio"] = float64(plain.failed) / float64(plain.attempted)
		m["machine.steal_share"] = plain.steal
		out.attempted, out.failed = plain.attempted, plain.failed
		return out, nil
	}

	traced, err := sweepRun(cfg, specs, refs, true, cal, out)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	stacks, err := decodeProfile(traced.profile)
	if err != nil {
		return nil, err
	}
	for b, v := range cpuShares(stacks) {
		m[b+".cpu_share"] = v
	}
	m["experiment.allocs_per_op"] = float64(plain.mallocs) / float64(plain.okReps)
	m["experiment.alloc_bytes_per_op"] = float64(plain.allocB) / float64(plain.okReps)
	m["experiment.parallel_efficiency"] = sum(plain.roundCPU) / (sum(plain.rounds) * float64(cfg.nproc))
	traced.spans.putLayers(m)
	m["trace.overhead"] = plain.rate() / traced.rate()
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	return out, nil
}

// sweepRun runs rounds until cfg.seconds have passed; a round in flight
// at the deadline completes and counts. An untraced phase runs a
// calibration slice before every round. A traced phase runs none, so no
// slice lands in its CPU profile, and passes a traced context into
// scenario.Run.
func sweepRun(cfg config, specs []scenario.Spec, refs []tableDigest, traced bool, cal *calibrator, out *outcome) (sweepPhase, error) {
	var ph sweepPhase
	var tracer *obs.Tracer
	var prof bytes.Buffer
	if traced {
		tracer = obs.New(obs.Options{Capacity: 64})
		if err := pprof.StartCPUProfile(&prof); err != nil {
			out.problem("starting CPU profile: %v", err)
		}
	}
	steal := newStealMeter()
	for deadline := time.Now().Add(cfg.seconds); time.Now().Before(deadline); {
		if !traced {
			if err := cal.slice(); err != nil {
				return ph, err
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := selfCPUMS()
		roundStart := time.Now()
		for i, spec := range specs {
			ctx := context.Background()
			var root obs.SpanRef
			if traced {
				ctx, root = tracer.StartTrace(ctx, "", "sweep")
			}
			o, err := scenario.Run(ctx, spec, scenario.Options{ReplicateWorkers: cfg.nproc})
			if traced {
				root.End()
				if tree, ok := tracer.ByID(root.TraceID()); ok {
					ph.spans.add(tree)
				}
			}
			ph.attempted += sweepReplicates
			switch {
			case err != nil:
				ph.failed += sweepReplicates
				out.problem("%s: %v", spec.Label(), err)
			case digestOf(o) != refs[i]:
				ph.failed += sweepReplicates
				out.problem("%s: table bytes differ from the ReplicateWorkers=1 reference", spec.Label())
			default:
				ph.okReps += sweepReplicates
			}
		}
		ph.rounds = append(ph.rounds, float64(time.Since(roundStart))/1e6)
		ph.roundCPU = append(ph.roundCPU, selfCPUMS()-cpu0)
		runtime.ReadMemStats(&ms1)
		ph.mallocs += ms1.Mallocs - ms0.Mallocs
		ph.allocB += ms1.TotalAlloc - ms0.TotalAlloc
	}
	ph.steal = steal.share()
	if traced {
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	return ph, nil
}

// selfPeakMiB is this process's VmHWM.
func selfPeakMiB() float64 {
	s, err := readProc(os.Getpid())
	if err != nil {
		return 0
	}
	return float64(s.hwmKB) / 1024
}
