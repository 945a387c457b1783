package experiment

import (
	"testing"

	"tempriv/internal/report"
	"tempriv/internal/resultstream"
)

// benchExperiment is a real (small) replicated workload: fig2b at reduced
// packet count, the cheapest experiment whose tables have the production
// shape.
func benchExperiment(b *testing.B) (Experiment, Params) {
	b.Helper()
	e, err := ByID("fig2b")
	if err != nil {
		b.Fatal(err)
	}
	p := testParams()
	p.Packets = 40
	p.Interarrivals = []float64{2, 10}
	return e, p
}

// BenchmarkReplicateStreamNilSink is the monolithic baseline: the streaming
// engine with no sink attached, i.e. exactly the pre-streaming replicated
// path. The chunk-sink benchmark below must stay close to this number — the
// gate that streaming durability does not regress the engine.
func BenchmarkReplicateStreamNilSink(b *testing.B) {
	e, p := benchExperiment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateRun(e, p, 4, ReplicateConfig{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateStreamChunkSink is the same workload with every
// replicate encoded, checksummed, and persisted through a chunk-store sink
// (fsync deferred, as a long sweep would run).
func BenchmarkReplicateStreamChunkSink(b *testing.B) {
	e, p := benchExperiment(b)
	store, err := resultstream.Open(b.TempDir(), resultstream.Options{SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	const fp = "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, err := store.Sink(fp, 4, resultstream.SinkHooks{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReplicateRun(e, p, 4, ReplicateConfig{Workers: 1, Sink: sink}); err != nil {
			b.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := store.Remove(fp); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkTableAccumulatorAdd isolates the streaming reduction's per-
// replicate fold (one-observation Welford merges across every cell).
func BenchmarkTableAccumulatorAdd(b *testing.B) {
	tab := &report.Table{RowHeader: "1/λ", Columns: []string{"a", "b", "c", "d"}}
	for r := 0; r < 10; r++ {
		tab.AddRow("row", 1.5, 2.25, 3.125, 4.0625)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc tableAccumulator
	for i := 0; i < b.N; i++ {
		if err := acc.add(tab); err != nil {
			b.Fatal(err)
		}
	}
}
