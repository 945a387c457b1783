package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"tempriv/internal/clock"
)

func newManualClock() *clock.Manual {
	return clock.NewManual(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
}

func TestTraceTreeStructure(t *testing.T) {
	clk := newManualClock()
	tr := New(Options{Clock: clk})
	ctx, root := tr.StartTrace(context.Background(), "", "job")
	if !root.Enabled() {
		t.Fatal("root span disabled on a live tracer")
	}
	root.BindJob("job-1")

	clk.Advance(time.Millisecond)
	ctx2, queue := StartSpan(ctx, "queue")
	clk.Advance(2 * time.Millisecond)
	queue.End()

	_, attempt := StartSpan(ctx2, "attempt")
	attempt.AnnotateInt("attempt", 1)
	clk.Advance(3 * time.Millisecond)
	attempt.End()
	root.End()

	tree, ok := tr.ByJob("job-1")
	if !ok {
		t.Fatal("ByJob miss after BindJob")
	}
	if !tree.Complete || tree.DurationNS != (6*time.Millisecond).Nanoseconds() {
		t.Fatalf("tree complete=%v duration=%d, want complete 6ms", tree.Complete, tree.DurationNS)
	}
	if tree.SpanCount != 3 || tree.Root.Name != "job" || len(tree.Root.Children) != 1 {
		t.Fatalf("unexpected tree shape: %+v", tree)
	}
	q := tree.Root.Children[0]
	if q.Name != "queue" || q.StartOffsetNS != time.Millisecond.Nanoseconds() ||
		q.DurationNS != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("queue span: %+v", q)
	}
	// The attempt was started from the queue span's context: it nests under
	// queue, not under the root.
	if len(q.Children) != 1 || q.Children[0].Name != "attempt" {
		t.Fatalf("attempt span not nested under queue: %+v", q)
	}
	if q.Children[0].Attrs["attempt"] != "1" {
		t.Fatalf("attempt attrs: %v", q.Children[0].Attrs)
	}
}

func TestOpenSpansRenderWithMinusOneDuration(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartTrace(context.Background(), "", "job")
	root.BindJob("j")
	_, child := StartSpan(ctx, "queue")
	_ = child
	tree, ok := tr.ByJob("j")
	if !ok {
		t.Fatal("ByJob miss")
	}
	if tree.Complete {
		t.Fatal("live trace reported complete")
	}
	if tree.DurationNS != -1 || tree.Root.DurationNS != -1 ||
		tree.Root.Children[0].DurationNS != -1 {
		t.Fatalf("open spans must render duration -1: %+v", tree)
	}
}

func TestClientTraceIDAdoptedAndEchoedDupRemints(t *testing.T) {
	tr := New(Options{})
	_, a := tr.StartTrace(context.Background(), "client-id-1", "job")
	if a.TraceID() != "client-id-1" {
		t.Fatalf("valid client ID not adopted: %q", a.TraceID())
	}
	// The same client ID again must not merge traces.
	_, b := tr.StartTrace(context.Background(), "client-id-1", "job")
	if b.TraceID() == "client-id-1" || b.TraceID() == "" {
		t.Fatalf("duplicate client ID not reminted: %q", b.TraceID())
	}
	// Garbage IDs are replaced, never rejected.
	_, c := tr.StartTrace(context.Background(), "white space!", "job")
	if c.TraceID() == "white space!" || len(c.TraceID()) != 16 {
		t.Fatalf("invalid client ID not replaced with a minted one: %q", c.TraceID())
	}
}

func TestValidTraceID(t *testing.T) {
	cases := []struct {
		id string
		ok bool
	}{
		{"abcd1234", true},
		{"A-b_c.d1", true},
		{strings.Repeat("x", 64), true},
		{strings.Repeat("x", 65), false},
		{"short", false},
		{"", false},
		{"has space", false},
		{"emoji-éid", false},
	}
	for _, c := range cases {
		if got := ValidTraceID(c.id); got != c.ok {
			t.Errorf("ValidTraceID(%q) = %v, want %v", c.id, got, c.ok)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(Options{Capacity: 2})
	ids := make([]string, 3)
	for i := range ids {
		_, root := tr.StartTrace(context.Background(), "", "job")
		root.BindJob("job-" + string(rune('a'+i)))
		ids[i] = root.TraceID()
		root.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("ring holds %d traces, want 2", tr.Len())
	}
	if _, ok := tr.ByID(ids[0]); ok {
		t.Fatal("oldest trace still resolvable after eviction")
	}
	if _, ok := tr.ByJob("job-a"); ok {
		t.Fatal("oldest trace still resolvable by job after eviction")
	}
	for _, id := range ids[1:] {
		if _, ok := tr.ByID(id); !ok {
			t.Fatalf("recent trace %s evicted", id)
		}
	}
}

func TestSpanCapDropsAndCounts(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartTrace(context.Background(), "", "job")
	root.BindJob("j")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	tree, _ := tr.ByJob("j")
	if tree.SpanCount != maxSpansPerTrace {
		t.Fatalf("span count %d, want cap %d", tree.SpanCount, maxSpansPerTrace)
	}
	if tree.SpansDropped != 11 { // 10 over cap + the one that hit the cap
		t.Fatalf("dropped %d, want 11", tree.SpansDropped)
	}
}

func TestJSONLSinkStreamsFinishedTraces(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Sink: &buf})
	ctx, root := tr.StartTrace(context.Background(), "sink-trace-1", "job")
	root.BindJob("j1")
	_, sp := StartSpan(ctx, "queue")
	sp.End()
	if buf.Len() != 0 {
		t.Fatal("sink written before the trace finished")
	}
	root.End()
	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("sink line not newline-terminated: %q", line)
	}
	var tree TraceTree
	if err := json.Unmarshal([]byte(line), &tree); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if tree.TraceID != "sink-trace-1" || tree.JobID != "j1" || !tree.Complete {
		t.Fatalf("sink tree: %+v", tree)
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("sink err: %v", err)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestSinkErrorDisablesSinkKeepsRing(t *testing.T) {
	w := &failWriter{}
	tr := New(Options{Sink: w})
	for i := 0; i < 3; i++ {
		_, root := tr.StartTrace(context.Background(), "", "job")
		root.BindJob("j")
		root.End()
	}
	if w.n != 1 {
		t.Fatalf("sick sink written %d times, want 1 (first error disables it)", w.n)
	}
	if tr.SinkErr() == nil {
		t.Fatal("SinkErr nil after a write error")
	}
	if tr.Len() != 3 {
		t.Fatalf("ring lost traces after sink failure: %d", tr.Len())
	}
}

func TestDisabledPathIsInert(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.StartTrace(context.Background(), "ignored", "job")
	if root.Enabled() || ctx != context.Background() {
		t.Fatal("nil tracer must return the zero handle and the same ctx")
	}
	ctx2, sp := StartSpan(ctx, "child")
	if sp.Enabled() || ctx2 != ctx {
		t.Fatal("StartSpan on an untraced ctx must be inert")
	}
	// Every method must be a safe no-op on the zero handle.
	sp.Annotate("k", "v")
	sp.AnnotateInt("k", 1)
	sp.BindJob("j")
	sp.EndErr(errWrite)
	sp.End()
	if sp.TraceID() != "" || sp.JobID() != "" || sp.Child("x").Enabled() {
		t.Fatal("zero handle leaked state")
	}
	if _, ok := tr.ByJob("j"); ok {
		t.Fatal("nil tracer resolved a job")
	}
	if tr.Len() != 0 || tr.SinkErr() != nil {
		t.Fatal("nil tracer reported state")
	}
}

// TestSpanAllocationFreeWhenDisabled pins the disabled-tracer contract the
// instrumented hot paths rely on: with no span in the context, the whole
// span API costs zero heap allocations. CI runs this alongside the engine's
// allocation gates.
func TestSpanAllocationFreeWhenDisabled(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := StartSpan(ctx, "engine")
		sp.AnnotateInt("rep", 3)
		sp.Annotate("k", "v")
		child := sp.Child("chunk")
		child.EndErr(nil)
		sp.End()
		_ = SpanFromContext(ctx2)
		_ = ContextWithSpan(ctx2, sp)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartTrace(context.Background(), "", "job")
	root.BindJob("j")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				_, sp := StartSpan(ctx, "replicate")
				sp.AnnotateInt("rep", int64(i*50+n))
				sp.End()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.ByJob("j") // render the tree while spans mutate it
		}
	}()
	wg.Wait()
	<-done
	root.End()
	tree, _ := tr.ByJob("j")
	if tree.SpanCount != 1+8*50 {
		t.Fatalf("span count %d, want %d", tree.SpanCount, 1+8*50)
	}
}

// BenchmarkSpanDisabled measures the disabled-tracer span path — the cost
// every request pays when tracing is off. Gated to 0 allocs/op in CI
// (ci/benchgate.py).
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := StartSpan(ctx, "engine")
		sp.AnnotateInt("rep", int64(i))
		sp.End()
		_ = ctx2
	}
}

// BenchmarkSpanEnabled is the enabled-path counterpart, for the record.
// Traces are rotated before they hit the span cap, so every iteration
// measures a real span append, not the capped drop path.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(Options{Capacity: 4})
	ctx, root := tr.StartTrace(context.Background(), "", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2048 == 2047 {
			root.End()
			ctx, root = tr.StartTrace(context.Background(), "", "bench")
		}
		_, sp := StartSpan(ctx, "engine")
		sp.End()
	}
	root.End()
}
