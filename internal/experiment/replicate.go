package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tempriv/internal/metrics"
	"tempriv/internal/network"
	"tempriv/internal/report"
)

// ReplicateSink receives per-replicate tables as the engine produces them —
// the seam that makes replicated runs streamable and crash-resumable
// (internal/resultstream persists each table as a checksummed chunk, the
// HTTP layer serves partials, and a restarted job answers Have from the
// surviving chunks).
//
// The engine calls Have exactly once per replicate and Emit exactly once
// per replicate, both from its coordinating goroutine, Emit in strict
// replicate-index order. A sink therefore needs no internal locking.
type ReplicateSink interface {
	// Have returns an already-persisted table for replicate rep, or nil to
	// have the engine compute it. A non-nil table must be the exact table
	// the replicate's seed would produce — the engine trusts it.
	Have(rep int) *report.Table
	// Emit delivers replicate rep's table in index order. fresh is false
	// for tables that came from Have. A non-nil error aborts the run.
	Emit(rep int, fresh bool, tab *report.Table) error
}

// ReplicateConfig tunes how ReplicateRun executes. Every field is
// execution-only: the output table is byte-identical for any setting.
type ReplicateConfig struct {
	// Workers bounds replication parallelism. Zero or negative means one
	// worker per available CPU (runtime.GOMAXPROCS(0)); 1 forces the serial
	// path.
	Workers int
	// Sink, when set, streams per-replicate tables and answers resume
	// queries; see ReplicateSink.
	Sink ReplicateSink
}

// ReplicateRun is the replication entry point: it runs e n times under
// seeds p.Seed … p.Seed+n−1 and aggregates the runs into one table. Every
// value column C of the underlying experiment becomes two columns, C (the
// across-seed mean) and "C ±" (the half-width of a normal-approximation
// 95 % confidence interval, 1.96·s/√n). The paper reports single runs;
// replication quantifies how much of each curve is signal.
//
// The replicates are partitioned over rc.Workers goroutines (defaulting to
// one per CPU) and reuse arena-backed simulation engines: every worker
// shares p.Engines when the caller set it (scenario.Run does), and
// otherwise each worker builds its own cache. The per-replicate tables are
// merged into the Welford reduction — and streamed to rc.Sink — in strict
// replicate order, each seed derived from its replicate index, so the
// output is byte-identical to the serial path, and to fresh engines, for
// every worker count.
func ReplicateRun(e Experiment, p Params, n int, rc ReplicateConfig) (*report.Table, error) {
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return replicateStream(e, p, n, workers, rc.Sink)
}

// replicateStream is the replication engine behind ReplicateRun. It folds
// replicate tables into the running Welford reduction (and hands them to
// sink) in replicate-index order as they complete, instead of
// accumulating the whole run in memory first. Replicates the sink already
// holds (Have) are not recomputed; the reduction stays byte-identical
// because the same tables enter it in the same order either way.
func replicateStream(e Experiment, p Params, n, workers int, sink ReplicateSink) (*report.Table, error) {
	if e.Run == nil {
		return nil, errors.New("experiment: replicate of experiment without Run")
	}
	if n < 2 {
		return nil, fmt.Errorf("experiment: replication needs n >= 2, got %d", n)
	}
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// Resume pass: ask the sink (single-goroutine contract) which
	// replicates are already in hand before any worker starts. The missing
	// list is snapshotted here because the consumer releases resumed entries
	// as it folds them — the feeder must not read that array concurrently.
	resumed := make([]*report.Table, n)
	missing := make([]int, 0, n)
	for rep := 0; rep < n; rep++ {
		if sink != nil {
			resumed[rep] = sink.Have(rep)
		}
		if resumed[rep] == nil {
			missing = append(missing, rep)
		}
	}

	type item struct {
		rep int
		tab *report.Table
		err error
	}
	reps := make(chan int)
	out := make(chan item, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The replicates a worker draws reuse arena-backed engines
			// instead of rebuilding them per seed. p.Engines, when set, is
			// shared by every worker: it keeps a stack of idle engines per
			// structure, a worker that finds its structure's stack empty
			// builds an engine, and every engine goes back on its stack, so
			// the cache holds at most one engine per structure per run in
			// flight. Otherwise the worker uses a cache of its own. Reuse
			// is byte-invisible (the engine rearm contract), so this
			// changes wall-clock and memory only.
			cache := p.Engines
			if cache == nil {
				cache = network.NewEngineCache()
			}
			for rep := range reps {
				q := p
				q.Seed = p.Seed + uint64(rep)
				q.Engines = cache
				tab, err := e.Run(q)
				if err == nil {
					err = tab.Validate()
				}
				if err != nil {
					err = fmt.Errorf("experiment: replication %d: %w", rep, err)
				}
				out <- item{rep: rep, tab: tab, err: err}
			}
		}()
	}
	go func() {
		for _, rep := range missing {
			reps <- rep
		}
		close(reps)
		wg.Wait()
		close(out)
	}()

	// Consume completions through a reorder buffer so the reduction (and
	// the sink) always sees replicate order; as in the pre-streaming path,
	// every replicate runs to completion and the lowest-index error wins.
	var acc tableAccumulator
	pending := make(map[int]item, workers)
	errs := make([]error, n)
	next := 0
	process := func(it item) {
		if it.err != nil {
			errs[it.rep] = it.err
			return
		}
		fresh := resumed[it.rep] == nil
		if err := acc.add(it.tab); err != nil {
			errs[it.rep] = fmt.Errorf("experiment: replication %d %w", it.rep, err)
			return
		}
		if sink != nil {
			if err := sink.Emit(it.rep, fresh, it.tab); err != nil {
				errs[it.rep] = fmt.Errorf("experiment: replication %d: sink: %w", it.rep, err)
			}
		}
	}
	advance := func() {
		for next < n {
			it, ok := pending[next]
			switch {
			case ok:
				delete(pending, next)
			case resumed[next] != nil:
				it = item{rep: next, tab: resumed[next]}
			default:
				return
			}
			// Stop folding after the first failure but keep draining, so
			// workers never block and the error is deterministic.
			if firstErr(errs, next) == nil {
				process(it)
			}
			resumed[next] = nil // release for GC once merged
			next++
		}
	}
	advance()
	for it := range out {
		pending[it.rep] = it
		advance()
	}
	advance()
	if err := firstErr(errs, n); err != nil {
		return nil, err
	}
	return acc.table(p, n)
}

// firstErr returns the lowest-index error among errs[:limit].
func firstErr(errs []error, limit int) error {
	for i := 0; i < limit; i++ {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// tableAccumulator folds replicate tables, delivered in replicate order,
// into the running across-seed mean ± CI aggregate. Every cell is a
// one-observation Welford accumulator merged into the running cell — the
// identical arithmetic (in the identical order) the pre-streaming
// reduceReplicates performed over a fully materialized table slice, so the
// streaming path is byte-identical to the monolithic one.
type tableAccumulator struct {
	shape *report.Table
	cells [][]metrics.Welford
	reps  int
}

// add folds one replicate's table. The first table fixes the shape; every
// later table must match it exactly.
func (a *tableAccumulator) add(tab *report.Table) error {
	if a.shape == nil {
		a.shape = tab
		a.cells = make([][]metrics.Welford, len(tab.Rows))
		for i, r := range tab.Rows {
			a.cells[i] = make([]metrics.Welford, len(r.Values))
		}
	} else {
		if len(tab.Rows) != len(a.shape.Rows) || len(tab.Columns) != len(a.shape.Columns) {
			return errors.New("changed table shape")
		}
	}
	for i, r := range tab.Rows {
		if r.Label != a.shape.Rows[i].Label {
			return fmt.Errorf("changed row %d label to %q", i, r.Label)
		}
		for j, v := range r.Values {
			if math.IsNaN(v) {
				continue
			}
			var one metrics.Welford
			one.Add(v)
			a.cells[i][j].Merge(&one)
		}
	}
	a.reps++
	return nil
}

// table renders the aggregate after all n replicates have been folded.
func (a *tableAccumulator) table(p Params, n int) (*report.Table, error) {
	if a.reps != n {
		return nil, fmt.Errorf("experiment: reduced %d of %d replications", a.reps, n)
	}
	shape := a.shape
	out := &report.Table{
		Title:     shape.Title + fmt.Sprintf(" — mean of %d seeds", n),
		RowHeader: shape.RowHeader,
		Notes: append(append([]string(nil), shape.Notes...),
			fmt.Sprintf("replicated over seeds %d..%d; ± columns are 1.96·s/√n (normal-approx 95%% CI)", p.Seed, p.Seed+uint64(n)-1)),
	}
	for _, c := range shape.Columns {
		out.Columns = append(out.Columns, c, c+" ±")
	}
	for i, r := range shape.Rows {
		values := make([]float64, 0, 2*len(r.Values))
		for j := range r.Values {
			w := &a.cells[i][j]
			if w.Count() == 0 {
				values = append(values, math.NaN(), math.NaN())
				continue
			}
			half := 0.0
			if w.Count() > 1 {
				// Sample std needs the n/(n−1) correction on the population
				// variance Welford reports.
				nn := float64(w.Count())
				sampleVar := w.Variance() * nn / (nn - 1)
				half = 1.96 * math.Sqrt(sampleVar/nn)
			}
			values = append(values, w.Mean(), half)
		}
		out.AddRow(r.Label, values...)
	}
	return out, nil
}
