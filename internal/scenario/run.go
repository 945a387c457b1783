package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"tempriv/internal/experiment"
	"tempriv/internal/metrics"
	"tempriv/internal/network"
	"tempriv/internal/obs"
	"tempriv/internal/report"
)

// ReplicateSink is the engine's streaming seam: per-replicate tables are
// emitted through it in replicate-index order as they complete, and Have
// lets a resumed run skip replicates that already persisted (see
// internal/resultstream and experiment.ReplicateSink, which this aliases).
type ReplicateSink = experiment.ReplicateSink

// Options tune how a scenario executes without affecting its result bytes.
type Options struct {
	// Progress, when set, receives coarse stage updates ("running",
	// "replicate 3/8", "rendering"). It may be called from worker
	// goroutines and must be safe for concurrent use.
	Progress func(stage, message string)
	// ReplicateWorkers bounds replication parallelism (default 1,
	// sequential). The reduction is order-fixed, so the output is
	// byte-identical for every worker count.
	ReplicateWorkers int
	// Sink, when set, streams every replicate's table out of the engine as
	// it completes and answers resume queries (skip replicates the sink
	// already holds). Execution-only: equal specs produce byte-identical
	// outcomes with or without a sink, resumed or not — the differential
	// tests hold the engine to that.
	Sink ReplicateSink
}

func (o Options) progress(stage, message string) {
	if o.Progress != nil {
		o.Progress(stage, message)
	}
}

// Manifest is the deterministic provenance record stored (and served)
// alongside a scenario's result tables. Every field is a pure function of
// the spec and the producing toolchain, so cache hits replay it
// byte-identically.
type Manifest struct {
	// SpecFingerprint is the scenario's content address (Spec.Fingerprint).
	SpecFingerprint string `json:"spec_fingerprint"`
	// Kind is "experiment" or "simulation".
	Kind string `json:"kind"`
	// Label is the experiment ID or topology/policy summary.
	Label string `json:"label"`
	// Seed is the base RNG seed (replicates use seed..seed+n-1).
	Seed uint64 `json:"seed"`
	// Replicates is the across-seed averaging count (1 = single run).
	Replicates int `json:"replicates"`
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version"`
}

// Outcome is one executed scenario: the result table plus its two rendered
// byte forms (exactly what the result cache stores and the HTTP result
// endpoint serves) and the provenance manifest.
type Outcome struct {
	// Table is the in-memory result.
	Table *report.Table
	// TableText is Table rendered as aligned ASCII.
	TableText []byte
	// TableCSV is Table rendered as CSV.
	TableCSV []byte
	// Manifest records provenance; ManifestJSON is its stable encoding.
	Manifest Manifest
}

// ManifestJSON returns the manifest as deterministic indented JSON.
func (o *Outcome) ManifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(o.Manifest, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// Run executes a scenario to completion. The spec is normalized first, so
// callers may pass raw parsed specs. ctx cancels between replicates (a
// single replicate, once started, runs to completion); a canceled run
// returns ctx's error. Equal specs produce byte-identical outcomes — the
// property the result cache's correctness rests on.
func Run(ctx context.Context, spec Spec, opts Options) (*Outcome, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}

	var e experiment.Experiment
	var seed uint64
	var replicates int
	switch spec.Kind() {
	case "experiment":
		reg, err := experiment.ByID(spec.Experiment.ID)
		if err != nil {
			return nil, invalidf("%v", err)
		}
		e = reg
		seed = spec.Experiment.Seed
		replicates = spec.Experiment.Replicates
	default:
		e = simExperiment(spec.Simulation)
		seed = spec.Simulation.Seed
		replicates = spec.Simulation.Replicates
	}

	p := paramsFor(spec)
	// One cache for the whole scenario: sweep points inside a single
	// replicate share engines too (the cache's checkout discipline makes it
	// safe under the sweep's parallelFor workers).
	p.Engines = network.NewEngineCache()
	opts.progress("running", fmt.Sprintf("%s (%d replicate(s), seed %d)", spec.Label(), replicates, seed))

	// The whole execution runs under an "engine" span; each replicate gets
	// a child span below. Both are free when the context is untraced (the
	// rcadsim/sweep paths, and temprivd with tracing off) — StartSpan on an
	// untraced context allocates nothing.
	ctx, engineSpan := obs.StartSpan(ctx, "engine")
	engineSpan.AnnotateInt("replicates", int64(replicates))
	defer engineSpan.End()

	// Wrap the experiment so each replicate checks for cancellation before
	// starting, runs under its own trace span, and reports progress as it
	// completes. Replicates may run on parallel workers; the trace record
	// is lock-guarded.
	var done atomic.Int64
	inner := e.Run
	e.Run = func(q experiment.Params) (*report.Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, repSpan := obs.StartSpan(ctx, "replicate")
		repSpan.AnnotateInt("rep", int64(q.Seed-seed))
		tab, err := inner(q)
		repSpan.EndErr(err)
		if err == nil && replicates > 1 {
			opts.progress("replicate", fmt.Sprintf("%d/%d", done.Add(1), replicates))
		}
		return tab, err
	}

	var tab *report.Table
	if replicates > 1 {
		workers := opts.ReplicateWorkers
		if workers < 1 {
			workers = 1
		}
		tab, err = experiment.ReplicateRun(e, p, replicates, experiment.ReplicateConfig{
			Workers: workers,
			Sink:    opts.Sink,
		})
	} else if opts.Sink != nil {
		// Single-replicate scenarios stream through the same seam: a
		// persisted chunk answers the whole run, a fresh run persists one.
		if tab = opts.Sink.Have(0); tab != nil {
			err = opts.Sink.Emit(0, false, tab)
		} else if tab, err = e.Run(p); err == nil {
			err = opts.Sink.Emit(0, true, tab)
		}
	} else {
		tab, err = e.Run(p)
	}
	if err != nil {
		return nil, err
	}

	opts.progress("rendering", "result tables")
	_, renderSpan := obs.StartSpan(ctx, "render")
	var text, csv bytes.Buffer
	if err := tab.Render(&text); err != nil {
		renderSpan.EndErr(err)
		return nil, fmt.Errorf("scenario: rendering table: %w", err)
	}
	if err := tab.RenderCSV(&csv); err != nil {
		renderSpan.EndErr(err)
		return nil, fmt.Errorf("scenario: rendering CSV: %w", err)
	}
	renderSpan.End()
	return &Outcome{
		Table:     tab,
		TableText: text.Bytes(),
		TableCSV:  csv.Bytes(),
		Manifest: Manifest{
			SpecFingerprint: fp,
			Kind:            spec.Kind(),
			Label:           spec.Label(),
			Seed:            seed,
			Replicates:      replicates,
			GoVersion:       runtime.Version(),
		},
	}, nil
}

// paramsFor maps a normalized spec onto experiment.Params. For simulation
// scenarios only the seed matters (everything else lives in the spec); for
// experiment scenarios the spec's knobs are the Params.
func paramsFor(spec Spec) experiment.Params {
	p := experiment.Defaults()
	if e := spec.Experiment; e != nil {
		p.Seed = e.Seed
		p.Packets = e.Packets
		p.Interarrivals = append([]float64(nil), e.Interarrivals...)
		p.MeanDelay = e.MeanDelay
		p.Capacity = e.Capacity
		p.Tau = e.Tau
		p.Threshold = e.Threshold
	} else {
		p.Seed = spec.Simulation.Seed
	}
	return p
}

// simExperiment adapts a SimulationSpec into an ad-hoc Experiment whose
// table shape depends only on the spec — the contract replication needs.
// Each row is one source flow; the columns mirror rcadsim's report.
func simExperiment(m *SimulationSpec) experiment.Experiment {
	title := fmt.Sprintf("Scenario: %s topology, %s buffering, %s traffic, %s adversary",
		m.Topology.Kind, m.Policy, m.Traffic.Kind, m.Adversary)
	return experiment.Experiment{
		ID:    "scenario-sim",
		Title: title,
		Paper: "scenario",
		Run: func(p experiment.Params) (*report.Table, error) {
			return runSimulation(m, p.Seed, title, p.Engines)
		},
	}
}

// runSimulation executes one seed of a simulation scenario and tabulates
// per-flow delivery, latency and adversary-MSE results.
func runSimulation(m *SimulationSpec, seed uint64, title string, engines *network.EngineCache) (*report.Table, error) {
	sim, err := Compile(m)
	if err != nil {
		return nil, err
	}
	sim.Config.Seed = seed
	var tab *report.Table
	var tabErr error
	err = network.RunBorrowed(engines, sim.Config, func(res *network.Result) error {
		tab, tabErr = simulationTable(sim, title, res)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: simulating: %w", err)
	}
	return tab, tabErr
}

// simulationTable scores a simulation scenario's result and tabulates it,
// one row per source flow. It reads res only while it runs.
func simulationTable(sim *Compiled, title string, res *network.Result) (*report.Table, error) {
	est, err := sim.Estimator()
	if err != nil {
		return nil, err
	}
	_, perFlow, err := res.Score(est)
	if err != nil {
		return nil, fmt.Errorf("scenario: scoring adversary: %w", err)
	}

	tab := &report.Table{
		Title:     title,
		RowHeader: "flow",
		Columns:   []string{"hops", "created", "delivered", "dropped", "lat-mean", "lat-p95", "adv-MSE"},
	}
	for i, s := range sim.Sources {
		f := res.Flows[s]
		mse := math.NaN()
		if mm, ok := perFlow[s]; ok {
			mse = mm.Value()
		}
		var lat metrics.LatencyReport
		if f != nil {
			lat = f.Latency
			tab.AddRow(fmt.Sprintf("S%d", i+1),
				float64(f.HopCount), float64(f.Created), float64(f.Delivered),
				float64(f.Dropped()), lat.Mean, lat.P95, mse)
		} else {
			tab.AddRow(fmt.Sprintf("S%d", i+1),
				math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), mse)
		}
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("delivery ratio %.6f, %d events, %d drops+preemptions at buffers",
			res.DeliveryRatio(), res.Events, totalBufferLosses(res)))
	return tab, nil
}

func totalBufferLosses(res *network.Result) uint64 {
	var n uint64
	for _, ns := range res.Nodes {
		n += ns.Drops + ns.Preemptions
	}
	return n
}
