package jobs

import (
	"context"
	"testing"
	"time"
)

func TestNoteChunksEventsSnapshotAndJournal(t *testing.T) {
	sink := &recordingSink{}
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		job.NoteChunks(1)
		job.NoteChunks(3)
		job.NoteChunks(2) // regression: the mark is monotonic
		job.NoteChunks(3) // duplicate: no second event
		return &Result{}, nil
	}
	q := New(runner, Options{Workers: 1, Journal: sink})
	defer q.Drain(context.Background())
	s, err := q.Submit(context.Background(), testSpec(t, 90), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, s.ID)
	if final.ChunksPersisted != 3 {
		t.Fatalf("ChunksPersisted = %d, want 3", final.ChunksPersisted)
	}
	if final.Replicates != 1 {
		t.Fatalf("Replicates = %d, want 1 (fig2a default)", final.Replicates)
	}

	history, _, stop, ok := q.Watch(s.ID)
	if !ok {
		t.Fatal("watch failed")
	}
	stop()
	var chunkEvents []int
	for _, ev := range history {
		if ev.Stage == "chunk" {
			chunkEvents = append(chunkEvents, ev.Chunks)
		}
	}
	if len(chunkEvents) != 2 || chunkEvents[0] != 1 || chunkEvents[1] != 3 {
		t.Fatalf("chunk events = %v, want [1 3]", chunkEvents)
	}

	sink.mu.Lock()
	journaled := append([]string(nil), sink.chunks...)
	sink.mu.Unlock()
	want := []string{s.ID + ":1", s.ID + ":3"}
	if len(journaled) != len(want) || journaled[0] != want[0] || journaled[1] != want[1] {
		t.Fatalf("journaled chunks = %v, want %v", journaled, want)
	}
}

func TestNoteChunksIgnoredAfterTerminal(t *testing.T) {
	q := New(okRunner(&Result{}), Options{Workers: 1})
	defer q.Drain(context.Background())
	s, err := q.Submit(context.Background(), testSpec(t, 91), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, s.ID)
	q.mu.Lock()
	j := q.jobs[s.ID]
	q.mu.Unlock()
	j.NoteChunks(5)
	if snap, _ := q.Get(s.ID); snap.ChunksPersisted != 0 {
		t.Fatalf("terminal job accepted chunk mark: %d", snap.ChunksPersisted)
	}
}

func TestRestoreCarriesChunkHighWaterMark(t *testing.T) {
	spec := testSpec(t, 92)
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var sawHWM int
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		if snap, ok := job.queue.Get(job.ID); ok {
			sawHWM = snap.ChunksPersisted
		}
		return &Result{}, nil
	}
	q := New(runner, Options{Workers: 1, Restore: []RestoredJob{{
		ID: "job-000007", Spec: spec, Fingerprint: fp,
		State: StateRunning, Submitted: time.Unix(1, 0), ChunkHWM: 2,
	}}})
	defer q.Drain(context.Background())
	final := waitTerminal(t, q, "job-000007")
	if final.State != StateDone {
		t.Fatalf("state = %q, want done", final.State)
	}
	if sawHWM != 2 {
		t.Fatalf("runner saw ChunksPersisted = %d, want the restored mark 2", sawHWM)
	}
	history, _, stop, ok := q.Watch("job-000007")
	if !ok {
		t.Fatal("watch failed")
	}
	stop()
	found := false
	for _, ev := range history {
		if ev.Stage == "restored" && ev.Chunks == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("restore event does not report surviving chunks: %+v", history)
	}
}
