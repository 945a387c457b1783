package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tempriv/internal/report"
)

// recordingReplicateSink captures the engine's sink protocol so the
// single-goroutine, in-order contract is checkable.
type recordingReplicateSink struct {
	have  map[int]*report.Table
	haves []int
	emits []int
	fresh map[int]bool
	tabs  map[int]*report.Table
	fail  error
}

func newRecordingSink() *recordingReplicateSink {
	return &recordingReplicateSink{
		have:  make(map[int]*report.Table),
		fresh: make(map[int]bool),
		tabs:  make(map[int]*report.Table),
	}
}

func (r *recordingReplicateSink) Have(rep int) *report.Table {
	r.haves = append(r.haves, rep)
	return r.have[rep]
}

func (r *recordingReplicateSink) Emit(rep int, fresh bool, tab *report.Table) error {
	r.emits = append(r.emits, rep)
	r.fresh[rep] = fresh
	r.tabs[rep] = tab
	return r.fail
}

func TestReplicateStreamSinkSeesOrderedProtocol(t *testing.T) {
	e := syntheticExperiment(func(seed uint64) float64 { return float64(seed) })
	sink := newRecordingSink()
	const n = 6
	// Workers > 1 so completions genuinely race; the reorder buffer must
	// still deliver Emit in replicate order.
	tab, err := ReplicateRun(e, Params{Seed: 3}, n, ReplicateConfig{Workers: 4, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil {
		t.Fatal("nil table")
	}
	for i := 0; i < n; i++ {
		if sink.haves[i] != i {
			t.Fatalf("Have order %v, want 0..%d ascending", sink.haves, n-1)
		}
		if sink.emits[i] != i {
			t.Fatalf("Emit order %v, want 0..%d ascending", sink.emits, n-1)
		}
		if !sink.fresh[i] {
			t.Fatalf("replicate %d reported as resumed with an empty sink", i)
		}
	}
	// Each emitted table is the replicate's own seed-derived result.
	for i := 0; i < n; i++ {
		if got := sink.tabs[i].Rows[0].Values[0]; got != float64(3+i) {
			t.Fatalf("replicate %d table value %v, want %d", i, got, 3+i)
		}
	}
}

func TestReplicateStreamWithSinkMatchesMonolithicByteForByte(t *testing.T) {
	// The differential oracle of the streaming refactor: the sink is an
	// observer, never an influence — output with a sink attached is
	// byte-identical to the pre-streaming path (nil sink) at every worker
	// count.
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 120
	p.Interarrivals = []float64{2, 10}
	baseline, err := ReplicateRun(e, p, 4, ReplicateConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, baseline)
	for _, workers := range []int{1, 3} {
		got, err := ReplicateRun(e, p, 4, ReplicateConfig{Workers: workers, Sink: newRecordingSink()})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(t, got), want) {
			t.Fatalf("sink attached (workers=%d) changed the output bytes", workers)
		}
	}
}

func TestReplicateStreamResumeIsByteIdentical(t *testing.T) {
	// A resumed run — some replicates answered from the sink instead of
	// recomputed — must reduce to the same bytes, because Have returns the
	// exact seed-derived tables and the reduction order is fixed.
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 120
	p.Interarrivals = []float64{2, 10}
	const n = 4
	baseline, err := ReplicateRun(e, p, n, ReplicateConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Persist replicates 0 and 3 (as a crashed run would have), recompute
	// them out-of-band via the same seed derivation.
	sink := newRecordingSink()
	norm, err := p.normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []int{0, 3} {
		q := norm
		q.Seed = norm.Seed + uint64(rep)
		tab, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		sink.have[rep] = tab
	}

	resumed, err := ReplicateRun(e, p, n, ReplicateConfig{Workers: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, resumed), render(t, baseline)) {
		t.Fatal("resumed run is not byte-identical to the uninterrupted run")
	}
	for _, rep := range []int{0, 3} {
		if sink.fresh[rep] {
			t.Fatalf("resumed replicate %d recomputed", rep)
		}
	}
	for _, rep := range []int{1, 2} {
		if !sink.fresh[rep] {
			t.Fatalf("missing replicate %d not recomputed", rep)
		}
	}
}

func TestReplicateStreamAllResumedRunsNothing(t *testing.T) {
	runs := 0
	e := Experiment{
		ID: "counter", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			runs++
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			tab.AddRow("only", float64(p.Seed))
			return tab, nil
		},
	}
	const n = 3
	sink := newRecordingSink()
	for rep := 0; rep < n; rep++ {
		tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
		tab.AddRow("only", float64(1+rep))
		sink.have[rep] = tab
	}
	tab, err := ReplicateRun(e, Params{Seed: 1}, n, ReplicateConfig{Workers: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Fatalf("fully-resumed run still executed %d replicate(s)", runs)
	}
	if got := tab.Rows[0].Values[0]; got != 2 { // mean of 1,2,3
		t.Fatalf("mean = %v, want 2", got)
	}
}

func TestReplicateStreamSinkErrorAborts(t *testing.T) {
	e := syntheticExperiment(func(seed uint64) float64 { return float64(seed) })
	sink := newRecordingSink()
	sink.fail = errors.New("disk gone")
	_, err := ReplicateRun(e, Params{Seed: 1}, 3, ReplicateConfig{Workers: 2, Sink: sink})
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("err = %v, want sink failure", err)
	}
	// The lowest-index failure wins, matching the engine's deterministic
	// error contract.
	if !strings.Contains(err.Error(), "replication 0") {
		t.Fatalf("err = %v, want replication 0 to report first", err)
	}
}

func TestReplicateStreamErrorMessagesMatchLegacy(t *testing.T) {
	// The streaming rewrite must keep the historical error text — callers
	// and operators grep for it.
	fail := Experiment{
		ID: "boom", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			if p.Seed == 2 {
				return nil, fmt.Errorf("kaput")
			}
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			tab.AddRow("only", 1)
			return tab, nil
		},
	}
	_, err := ReplicateRun(fail, Params{Seed: 1}, 3, ReplicateConfig{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "experiment: replication 1: kaput") {
		t.Fatalf("err = %v, want legacy replication-error format", err)
	}
}
