package jobs

import (
	"context"
	"testing"
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

	// The chunk files are the record of persisted replicates: the journal
	// hears only the submission and the end.
	if subs, ends := sink.snapshot(); len(subs) != 1 || len(ends) != 1 || ends[0] != s.ID+":done" {
		t.Fatalf("journaled submits %v and ends %v, want one each", subs, ends)
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
