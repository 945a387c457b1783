package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"tempriv/internal/network"
	"tempriv/internal/report"
)

// syntheticExperiment returns an experiment whose single cell is a
// deterministic function of the seed, so replication statistics are exactly
// checkable.
func syntheticExperiment(f func(seed uint64) float64) Experiment {
	return Experiment{
		ID:    "synthetic",
		Title: "synthetic",
		Paper: "test",
		Run: func(p Params) (*report.Table, error) {
			t := &report.Table{Title: "synthetic", RowHeader: "x", Columns: []string{"v"}}
			t.AddRow("only", f(p.Seed))
			return t, nil
		},
	}
}

func TestReplicateExactStatistics(t *testing.T) {
	// Seeds 10..14 → values 10..14: mean 12, sample std sqrt(2.5).
	e := syntheticExperiment(func(seed uint64) float64 { return float64(seed) })
	p := Params{Seed: 10}
	tab, err := ReplicateRun(e, p, 5, ReplicateConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 2 || tab.Columns[0] != "v" || tab.Columns[1] != "v ±" {
		t.Fatalf("columns = %v", tab.Columns)
	}
	row := tab.Rows[0]
	if math.Abs(row.Values[0]-12) > 1e-12 {
		t.Fatalf("mean = %v, want 12", row.Values[0])
	}
	wantHalf := 1.96 * math.Sqrt(2.5/5)
	if math.Abs(row.Values[1]-wantHalf) > 1e-9 {
		t.Fatalf("ci half-width = %v, want %v", row.Values[1], wantHalf)
	}
	if !strings.Contains(tab.Title, "mean of 5 seeds") {
		t.Fatalf("title = %q", tab.Title)
	}
}

func TestReplicateConstantExperimentHasZeroCI(t *testing.T) {
	e := syntheticExperiment(func(uint64) float64 { return 7 })
	tab, err := ReplicateRun(e, Params{Seed: 1}, 3, ReplicateConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].Values[0] != 7 || tab.Rows[0].Values[1] != 0 {
		t.Fatalf("row = %v, want [7 0]", tab.Rows[0].Values)
	}
}

func TestReplicateValidation(t *testing.T) {
	e := syntheticExperiment(func(uint64) float64 { return 0 })
	if _, err := ReplicateRun(e, Params{}, 1, ReplicateConfig{Workers: 1}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ReplicateRun(Experiment{}, Params{}, 3, ReplicateConfig{Workers: 1}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestReplicateRejectsShapeChange(t *testing.T) {
	e := Experiment{
		ID: "shapeshifter", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			// A different label per seed must be rejected.
			tab.AddRow(fmt.Sprintf("row-%d", p.Seed), 1)
			return tab, nil
		},
	}
	if _, err := ReplicateRun(e, Params{Seed: 1}, 2, ReplicateConfig{Workers: 1}); err == nil {
		t.Fatal("label change across replications accepted")
	}
}

func TestReplicateSkipsNaNCells(t *testing.T) {
	e := Experiment{
		ID: "nan", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			v := math.NaN()
			if p.Seed%2 == 0 {
				v = 4
			}
			tab.AddRow("only", v)
			return tab, nil
		},
	}
	tab, err := ReplicateRun(e, Params{Seed: 2}, 3, ReplicateConfig{Workers: 1}) // seeds 2,3,4 → values 4, NaN, 4
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].Values[0] != 4 {
		t.Fatalf("NaN cells not skipped: mean = %v", tab.Rows[0].Values[0])
	}
}

// render returns the table's exact text form for byte-level comparison.
func render(t *testing.T, tab *report.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplicateParallelMatchesSerialByteForByte(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 120
	p.Interarrivals = []float64{2, 10}
	serial, err := ReplicateRun(e, p, 4, ReplicateConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		parallel, err := ReplicateRun(e, p, 4, ReplicateConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(t, parallel), render(t, serial); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d output differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
				workers, got, want)
		}
	}
}

func TestReplicateParallelSeedDerivationIsByIndex(t *testing.T) {
	// With many workers the completion order is nondeterministic, but each
	// replication's value must still be folded in by its index-derived seed.
	e := syntheticExperiment(func(seed uint64) float64 { return float64(seed) })
	tab, err := ReplicateRun(e, Params{Seed: 100}, 8, ReplicateConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Seeds 100..107 → mean 103.5.
	if math.Abs(tab.Rows[0].Values[0]-103.5) > 1e-12 {
		t.Fatalf("mean = %v, want 103.5", tab.Rows[0].Values[0])
	}
	if !strings.Contains(strings.Join(tab.Notes, "\n"), "seeds 100..107") {
		t.Fatalf("notes = %v", tab.Notes)
	}
}

func TestReplicateParallelPropagatesRunError(t *testing.T) {
	boom := errors.New("boom")
	e := Experiment{
		ID: "failing", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			if p.Seed == 3 {
				return nil, boom
			}
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			tab.AddRow("only", 1)
			return tab, nil
		},
	}
	_, err := ReplicateRun(e, Params{Seed: 1}, 4, ReplicateConfig{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestReplicateRealExperiment(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 150
	p.Interarrivals = []float64{2}
	tab, err := ReplicateRun(e, p, 3, ReplicateConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// NoDelay latency is deterministic (h·τ): mean 15, CI 0.
	if math.Abs(tab.Rows[0].Values[0]-15) > 1e-9 || tab.Rows[0].Values[1] != 0 {
		t.Fatalf("NoDelay columns = %v, want [15 0 ...]", tab.Rows[0].Values[:2])
	}
	// RCAD latency varies across seeds: CI strictly positive and small
	// relative to the mean.
	rcadMean, rcadCI := tab.Rows[0].Values[4], tab.Rows[0].Values[5]
	if rcadCI <= 0 {
		t.Fatalf("RCAD CI = %v, want > 0", rcadCI)
	}
	if rcadCI > 0.5*rcadMean {
		t.Fatalf("RCAD CI %v implausibly wide vs mean %v", rcadCI, rcadMean)
	}
}

// TestReplicateEngineReuseMatchesFresh is the engine-reuse differential at
// the experiment layer. The reference folds each seed's plain run (nil
// Engines, so every simulation builds a fresh engine) through the same
// accumulator ReplicateRun uses. ReplicateRun with per-worker reused
// engines and with a caller-shared engine cache must render byte-identical
// tables. abl-mix covers custom policies, including the timed mix, whose
// factory arms a flush timer when it is built. Engine reuse is a pure
// execution optimisation; any byte of divergence is state leaking across a
// rearm.
func TestReplicateEngineReuseMatchesFresh(t *testing.T) {
	for _, id := range []string{"fig2b", "abl-mix"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			p := testParams()
			p.Packets = 120
			p.Interarrivals = []float64{2, 10}
			const n = 4

			var acc tableAccumulator
			for rep := 0; rep < n; rep++ {
				q := p
				q.Seed = p.Seed + uint64(rep)
				tab, err := e.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				if err := acc.add(tab); err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := acc.table(p, n)
			if err != nil {
				t.Fatal(err)
			}
			want := render(t, fresh)

			for _, workers := range []int{1, 2, 4} {
				reused, err := ReplicateRun(e, p, n, ReplicateConfig{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := render(t, reused); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d with engine reuse differs from fresh engines:\n--- reused ---\n%s\n--- fresh ---\n%s",
						workers, got, want)
				}
			}

			shared := p
			shared.Engines = network.NewEngineCache()
			cached, err := ReplicateRun(e, shared, n, ReplicateConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, cached); !bytes.Equal(got, want) {
				t.Fatalf("caller-shared engine cache diverged from fresh engines:\n--- cached ---\n%s\n--- fresh ---\n%s", got, want)
			}
		})
	}
}
