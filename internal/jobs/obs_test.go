package jobs

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"tempriv/internal/obs"
)

// treeSpans collects every span named name anywhere under root.
func treeSpans(root *obs.SpanTree, name string) []*obs.SpanTree {
	var out []*obs.SpanTree
	if root == nil {
		return nil
	}
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, treeSpans(c, name)...)
	}
	return out
}

func TestTraceSpansForOneAttempt(t *testing.T) {
	var attempts atomic.Int32
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		attempts.Add(1)
		// The attempt span must reach the runner through its context.
		if !obs.SpanFromContext(ctx).Enabled() {
			t.Error("runner ctx carries no span")
		}
		return &Result{Fingerprint: job.Fingerprint}, nil
	}
	q := New(runner, Options{Workers: 1})
	defer q.Drain(context.Background())

	tracer := obs.New(obs.Options{})
	ctx, _ := tracer.StartTrace(context.Background(), "", "job")
	s, err := q.Submit(ctx, testSpec(t, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, s.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q, want done", final.State)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1", n)
	}

	tree, ok := tracer.ByJob(s.ID)
	if !ok {
		t.Fatal("no trace bound to the job ID")
	}
	if !tree.Complete {
		t.Fatal("trace still open after the job finished")
	}
	if tree.Root.Attrs["state"] != "done" || tree.Root.Attrs["cache_hit"] != "false" {
		t.Fatalf("root attrs: %v", tree.Root.Attrs)
	}
	if got := treeSpans(tree.Root, "queue"); len(got) != 1 || got[0].DurationNS < 0 {
		t.Fatalf("queue spans: %+v", got)
	}
	if atts := treeSpans(tree.Root, "attempt"); len(atts) != 1 || atts[0].DurationNS < 0 {
		t.Fatalf("attempt spans: %+v, want exactly one closed span", atts)
	}
	if backoffs := treeSpans(tree.Root, "backoff"); len(backoffs) != 0 {
		t.Fatalf("%d backoff spans, want none", len(backoffs))
	}
}

func TestCancelWhileQueuedEndsTrace(t *testing.T) {
	block := make(chan struct{})
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		<-block
		return &Result{Fingerprint: job.Fingerprint}, nil
	}
	q := New(runner, Options{Workers: 1})
	defer func() {
		close(block)
		q.Drain(context.Background())
	}()

	// Occupy the only worker so the traced job stays queued.
	if _, err := q.Submit(context.Background(), testSpec(t, 2), ""); err != nil {
		t.Fatal(err)
	}
	tracer := obs.New(obs.Options{})
	ctx, _ := tracer.StartTrace(context.Background(), "", "job")
	s, err := q.Submit(ctx, testSpec(t, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Cancel(s.ID); !ok {
		t.Fatal("cancel failed")
	}
	tree, ok := tracer.ByJob(s.ID)
	if !ok {
		t.Fatal("no trace for canceled job")
	}
	if !tree.Complete {
		t.Fatal("canceled-while-queued trace left open")
	}
	if tree.Root.Attrs["state"] != "canceled" {
		t.Fatalf("root attrs: %v", tree.Root.Attrs)
	}
	queueSpans := treeSpans(tree.Root, "queue")
	if len(queueSpans) != 1 || queueSpans[0].Attrs["outcome"] != "canceled" {
		t.Fatalf("queue spans: %+v", queueSpans)
	}
}

func TestStructuredLogsCarryJobAndTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	log, err := obs.NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, job *Job, progress func(string, string)) (*Result, error) {
		return &Result{Fingerprint: job.Fingerprint}, nil
	}
	q := New(runner, Options{Workers: 1, Log: log})
	defer q.Drain(context.Background())

	tracer := obs.New(obs.Options{})
	ctx, _ := tracer.StartTrace(context.Background(), "log-trace-1", "job")
	s, err := q.Submit(ctx, testSpec(t, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, s.ID)
	q.Drain(context.Background())

	out := buf.String()
	for _, msg := range []string{"job accepted", "job started", "job done"} {
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, msg) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("no %q log line in:\n%s", msg, out)
		}
		if !strings.Contains(line, s.ID) {
			t.Errorf("%q line missing job ID: %s", msg, line)
		}
		if !strings.Contains(line, "log-trace-1") {
			t.Errorf("%q line missing trace ID: %s", msg, line)
		}
	}
}
