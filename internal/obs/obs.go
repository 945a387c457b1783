// Package obs is temprivd's request-scoped observability layer: end-to-end
// job traces, burn-rate SLOs (see slo.go) and trace-aware structured
// logging (see log.go) — the three pillars the metrics registry
// (internal/telemetry) alone cannot provide, because aggregate counters
// cannot say *which stage* of *which job* produced a latency.
//
// # Tracing model
//
// A Tracer mints one trace per submitted job at HTTP ingress (or adopts a
// client-supplied X-Trace-Id) and records a tree of spans as the job moves
// through the serving stack: ingress parsing, queue wait and the job's
// one run attempt (internal/jobs), cache consultation and fill
// (internal/resultcache via the server's Runner), engine execution with one
// span per replicate (internal/scenario), and chunk persistence
// (internal/resultstream). Finished traces land in a fixed-capacity
// flight-recorder ring, queryable by job ID (GET /v1/traces/{jobID}), and
// optionally stream to a JSONL file (temprivd -trace-dir).
//
// # Propagation
//
// Spans travel by context.Context: StartSpan derives a child of the span
// already in ctx, and SpanRef.Child covers seams where no context flows
// (the resultstream sink hooks). The per-packet simulation core is never
// instrumented — tracing stops at the replicate boundary, so the event
// kernel's zero-allocation fast path is untouched.
//
// # Disabled cost
//
// Like the telemetry registry, the disabled path is free: a nil *Tracer
// mints nothing, a context without a span yields the zero SpanRef, and
// every SpanRef method no-ops on the zero value without allocating —
// pinned by an AllocsPerRun test and a benchmark gated in CI
// (ci/benchgate.py). Instrumented code therefore calls StartSpan
// unconditionally.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tempriv/internal/clock"
)

// DefaultCapacity is the flight-recorder ring size when Options.Capacity
// is zero: the most recent 512 traces stay queryable.
const DefaultCapacity = 512

// maxSpansPerTrace bounds one trace's span count so a pathological job
// (say, a 10⁶-replicate sweep) cannot grow a trace without bound. Spans
// past the cap are dropped and counted on the root span.
const maxSpansPerTrace = 4096

// Options configure a Tracer.
type Options struct {
	// Capacity bounds how many traces the flight recorder retains
	// (default DefaultCapacity). The oldest trace is evicted first.
	Capacity int
	// Sink, when non-nil, receives one JSON line per *finished* trace —
	// the -trace-dir stream. Writes happen under the tracer lock, so the
	// writer should be buffered or fast; a write error disables the sink
	// for the rest of the process life (the ring keeps working).
	Sink io.Writer
	// Clock stamps span starts and ends (nil = clock.Real).
	Clock clock.Clock
}

// Tracer is the flight recorder: it mints traces, retains the most recent
// Capacity of them, and indexes them by trace ID and by job ID. A nil
// *Tracer is the disabled state — StartTrace returns the zero SpanRef and
// costs nothing.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	clock   clock.Clock
	order   []*Trace // start order; order[0] is evicted first
	byID    map[string]*Trace
	byJob   map[string]*Trace
	sink    io.Writer
	sinkErr error
	minted  atomic.Uint64 // fallback ID counter if crypto/rand fails
}

// New returns a Tracer with the given options.
func New(o Options) *Tracer {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.Clock == nil {
		o.Clock = clock.Real
	}
	return &Tracer{
		cap:   o.Capacity,
		clock: o.Clock,
		byID:  make(map[string]*Trace),
		byJob: make(map[string]*Trace),
		sink:  o.Sink,
	}
}

// Trace is one job's span record. All fields are guarded by mu — spans are
// started and ended from HTTP handlers, queue workers and engine replicate
// goroutines concurrently.
type Trace struct {
	mu      sync.Mutex
	tracer  *Tracer
	id      string
	jobID   string
	start   time.Time
	end     time.Time // zero while the trace is live
	spans   []span    // spans[0] is the root
	dropped int       // spans discarded past maxSpansPerTrace
}

// span is one timed operation inside a trace.
type span struct {
	name   string
	parent int32 // index into Trace.spans; -1 for the root
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
}

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRef is a handle on one span of one trace. The zero SpanRef is the
// disabled handle: every method no-ops without allocating, so instrumented
// code never branches on whether tracing is on.
type SpanRef struct {
	t   *Trace
	idx int32
}

// Enabled reports whether the handle refers to a live span. Use it to
// guard argument construction that would itself allocate (formatting an
// attribute value, say); the methods themselves are always safe to call.
func (s SpanRef) Enabled() bool { return s.t != nil }

// TraceID returns the owning trace's ID ("" on the zero handle).
func (s SpanRef) TraceID() string {
	if s.t == nil {
		return ""
	}
	return s.t.id
}

// JobID returns the job bound to the owning trace ("" until BindJob).
func (s SpanRef) JobID() string {
	if s.t == nil {
		return ""
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.jobID
}

// Child starts a sub-span under s — the propagation path for seams where
// no context flows (hooks, callbacks). On the zero handle it returns the
// zero handle.
func (s SpanRef) Child(name string) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	return s.t.startSpan(s.idx, name)
}

// Annotate attaches a key/value pair to the span.
func (s SpanRef) Annotate(key, value string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if int(s.idx) >= len(s.t.spans) {
		return
	}
	sp := &s.t.spans[s.idx]
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
}

// AnnotateInt attaches an integer annotation. The formatting happens only
// when the span is live, so hot paths pay nothing when tracing is off.
func (s SpanRef) AnnotateInt(key string, value int64) {
	if s.t == nil {
		return
	}
	s.Annotate(key, strconv.FormatInt(value, 10))
}

// End closes the span. Ending the root span finishes the trace: its end
// time is stamped and the trace streams to the JSONL sink (if configured).
// Ending a span twice is a no-op.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if int(s.idx) >= len(t.spans) {
		t.mu.Unlock()
		return
	}
	sp := &t.spans[s.idx]
	if !sp.end.IsZero() {
		t.mu.Unlock()
		return
	}
	now := t.tracer.clock.Now()
	sp.end = now
	root := s.idx == 0
	if root {
		t.end = now
	}
	t.mu.Unlock()
	if root {
		t.tracer.finished(t)
	}
}

// EndErr closes the span, annotating it with the error first (nil errors
// leave no annotation).
func (s SpanRef) EndErr(err error) {
	if s.t != nil && err != nil {
		s.Annotate("error", err.Error())
	}
	s.End()
}

// BindJob associates the trace with a queue job ID, making it queryable
// via Tracer.ByJob (the GET /v1/traces/{jobID} path) and stamping the job
// ID into trace-aware log lines.
func (s SpanRef) BindJob(jobID string) {
	if s.t == nil || jobID == "" {
		return
	}
	t := s.t
	t.mu.Lock()
	t.jobID = jobID
	t.mu.Unlock()
	tr := t.tracer
	tr.mu.Lock()
	tr.byJob[jobID] = t
	tr.mu.Unlock()
}

// startSpan appends a child span under parent and returns its handle.
func (t *Trace) startSpan(parent int32, name string) SpanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return SpanRef{}
	}
	t.spans = append(t.spans, span{
		name:   name,
		parent: parent,
		start:  t.tracer.clock.Now(),
	})
	return SpanRef{t: t, idx: int32(len(t.spans) - 1)}
}

// ctxKey carries the current SpanRef through a context.Context. The value
// is only installed when tracing is enabled, so the disabled path never
// allocates a context node.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span. On the zero
// handle it returns ctx unchanged (no allocation).
func ContextWithSpan(ctx context.Context, s SpanRef) context.Context {
	if s.t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the current span (zero handle if none).
func SpanFromContext(ctx context.Context) SpanRef {
	s, _ := ctx.Value(ctxKey{}).(SpanRef)
	return s
}

// StartSpan starts a child of ctx's current span and returns a derived
// context carrying it. With no span in ctx (tracing disabled, or a code
// path outside any trace) it returns ctx unchanged and the zero handle —
// zero allocations, so hot paths call it unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, SpanRef) {
	parent := SpanFromContext(ctx)
	if parent.t == nil {
		return ctx, SpanRef{}
	}
	child := parent.Child(name)
	if child.t == nil { // span cap reached
		return ctx, SpanRef{}
	}
	return context.WithValue(ctx, ctxKey{}, child), child
}

// TraceIDFromContext returns the trace ID of ctx's current span ("" when
// untraced) — the hook log handlers use.
func TraceIDFromContext(ctx context.Context) string {
	return SpanFromContext(ctx).TraceID()
}

// StartTrace mints a new trace (or adopts requestedID if it is a sane
// client-supplied identifier), registers it in the flight recorder, and
// returns a context carrying the root span plus the root's handle. On a
// nil tracer it returns ctx unchanged and the zero handle.
func (t *Tracer) StartTrace(ctx context.Context, requestedID, rootName string) (context.Context, SpanRef) {
	if t == nil {
		return ctx, SpanRef{}
	}
	id := requestedID
	if !ValidTraceID(id) {
		id = t.mintID()
	}
	tr := &Trace{tracer: t, id: id, start: t.clock.Now()}
	tr.spans = append(tr.spans, span{name: rootName, parent: -1, start: tr.start})

	t.mu.Lock()
	// A duplicate client-supplied ID would silently merge two jobs'
	// traces; remint instead.
	if _, dup := t.byID[id]; dup {
		id = t.mintID()
		tr.id = id
	}
	t.byID[id] = tr
	t.order = append(t.order, tr)
	for len(t.order) > t.cap {
		old := t.order[0]
		t.order = t.order[1:]
		delete(t.byID, old.id)
		old.mu.Lock()
		if old.jobID != "" {
			if t.byJob[old.jobID] == old {
				delete(t.byJob, old.jobID)
			}
		}
		old.mu.Unlock()
	}
	t.mu.Unlock()

	root := SpanRef{t: tr, idx: 0}
	return context.WithValue(ctx, ctxKey{}, root), root
}

// ValidTraceID reports whether a client-supplied trace ID is acceptable:
// 8–64 characters drawn from [A-Za-z0-9._-]. Anything else is replaced
// with a minted ID rather than rejected — tracing must never fail a
// request.
func ValidTraceID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// mintID returns a fresh 16-hex-char trace ID.
func (t *Tracer) mintID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion must not fail tracing; fall back to a
		// process-unique counter.
		return fmt.Sprintf("trace-%016x", t.minted.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// SpanTree is the JSON form of one span and its children, as served by
// GET /v1/traces/{jobID}. StartOffsetNS is measured from the trace root's
// start on the monotonic clock, so offsets order correctly even across a
// wall-clock step; DurationNS is -1 while the span is still open.
type SpanTree struct {
	Name          string            `json:"name"`
	Start         time.Time         `json:"start"`
	StartOffsetNS int64             `json:"start_offset_ns"`
	DurationNS    int64             `json:"duration_ns"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Children      []*SpanTree       `json:"children,omitempty"`
}

// TraceTree is a finished-or-live trace rendered as a span tree.
type TraceTree struct {
	TraceID      string    `json:"trace_id"`
	JobID        string    `json:"job_id,omitempty"`
	Start        time.Time `json:"start"`
	Complete     bool      `json:"complete"`
	DurationNS   int64     `json:"duration_ns"` // -1 while live
	SpanCount    int       `json:"span_count"`
	SpansDropped int       `json:"spans_dropped,omitempty"`
	Root         *SpanTree `json:"root"`
}

// tree renders the trace's current state.
func (t *Trace) tree() *TraceTree {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*SpanTree, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		n := &SpanTree{
			Name:          sp.name,
			Start:         sp.start,
			StartOffsetNS: sp.start.Sub(t.start).Nanoseconds(),
			DurationNS:    -1,
		}
		if !sp.end.IsZero() {
			n.DurationNS = sp.end.Sub(sp.start).Nanoseconds()
		}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[i] = n
	}
	for i := 1; i < len(t.spans); i++ {
		p := t.spans[i].parent
		if p >= 0 && int(p) < len(nodes) {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		}
	}
	out := &TraceTree{
		TraceID:      t.id,
		JobID:        t.jobID,
		Start:        t.start,
		Complete:     !t.end.IsZero(),
		DurationNS:   -1,
		SpanCount:    len(t.spans),
		SpansDropped: t.dropped,
		Root:         nodes[0],
	}
	if out.Complete {
		out.DurationNS = t.end.Sub(t.start).Nanoseconds()
	}
	return out
}

// ByJob returns the span tree of the trace bound to jobID. Live traces
// render with Complete=false and open spans at DurationNS -1.
func (t *Tracer) ByJob(jobID string) (*TraceTree, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	tr := t.byJob[jobID]
	t.mu.Unlock()
	if tr == nil {
		return nil, false
	}
	return tr.tree(), true
}

// ByID returns the span tree of the trace with the given trace ID.
func (t *Tracer) ByID(id string) (*TraceTree, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	tr := t.byID[id]
	t.mu.Unlock()
	if tr == nil {
		return nil, false
	}
	return tr.tree(), true
}

// Len returns how many traces the flight recorder currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// finished streams a completed trace to the JSONL sink (if any). Called
// once per trace, when its root span ends.
func (t *Tracer) finished(tr *Trace) {
	if t == nil || t.sink == nil {
		return
	}
	tree := tr.tree()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sinkErr != nil {
		return
	}
	b, err := json.Marshal(tree)
	if err == nil {
		b = append(b, '\n')
		_, err = t.sink.Write(b)
	}
	if err != nil {
		// A sick trace sink must not fail serving: stop streaming, keep
		// the in-memory ring.
		t.sinkErr = err
	}
}

// SinkErr returns the first trace-sink write error (nil while healthy).
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}
