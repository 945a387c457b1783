package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tempriv/internal/packet"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Value() = %g, want 1.5", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestNilRegistryReturnsNilHandles(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry must write nothing")
	}
}

// TestDisabledPathAllocs pins the disabled telemetry path at zero
// allocations: a nil registry lookup plus every nil-handle operation must
// not allocate, so the simulation hot path can call them unconditionally.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("tempriv_packets_created_total")
	g := r.Gauge("tempriv_sim_time")
	h := r.Histogram("tempriv_delivery_latency")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("tempriv_packets_created_total").Inc()
		c.Inc()
		c.Add(2)
		g.Set(3.5)
		h.Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocated %v times per run, want 0", allocs)
	}
}

func TestEnabledHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("enabled handle operations allocated %v times per run, want 0", allocs)
	}
}

func TestRegistryReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return same counter")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("same name must return same gauge")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("same name must return same histogram")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestHistBucketEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0},
		{0, 0},
		{math.NaN(), 0},
		{math.Ldexp(1, histMinExp) / 4, 0}, // below the smallest edge
		{1, 1 - histMinExp + 0},            // Ilogb(1)=0 → bucket 17 with histMinExp=-16
		{1.999, -histMinExp + 1},
		{2, -histMinExp + 2},
		{math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite positive value must land in a bucket whose bounds contain it.
	for _, v := range []float64{0.001, 0.5, 1, 3, 10, 1e6} {
		i := histBucket(v)
		if v >= histUpper(i) {
			t.Errorf("value %g ≥ upper bound %g of its bucket %d", v, histUpper(i), i)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(1.0) // all mass in one bucket: [1, 2)
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %g, want within [1, 2)", p50)
	}
	if h.Quantile(-0.1) != 0 || h.Quantile(1.1) != 0 {
		t.Fatal("out-of-range quantiles must read 0")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must read 0")
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("tempriv_packets_delivered_total").Add(42)
	r.Gauge("tempriv_sim_time").Set(12.5)
	h := r.Histogram("tempriv_delivery_latency")
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(1.5)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tempriv_packets_delivered_total counter\ntempriv_packets_delivered_total 42\n",
		"# TYPE tempriv_sim_time gauge\ntempriv_sim_time 12.5\n",
		"# TYPE tempriv_delivery_latency histogram\n",
		`tempriv_delivery_latency_bucket{le="1"} 1`,
		`tempriv_delivery_latency_bucket{le="2"} 3`,
		`tempriv_delivery_latency_bucket{le="+Inf"} 3`,
		"tempriv_delivery_latency_sum 3.5\n",
		"tempriv_delivery_latency_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}

	// Deterministic: a second snapshot of unchanged state is identical.
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("prom snapshots of unchanged state differ")
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c 1\n") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(2)
	snap := r.Snapshot()
	if snap["c"] != uint64(3) {
		t.Fatalf("snapshot c = %v", snap["c"])
	}
	if snap["g"] != 1.5 {
		t.Fatalf("snapshot g = %v", snap["g"])
	}
	hm, ok := snap["h"].(map[string]any)
	if !ok || hm["count"] != uint64(1) {
		t.Fatalf("snapshot h = %v", snap["h"])
	}
}

func TestMemoryEmitter(t *testing.T) {
	var m Memory
	for i := 0; i < 3; i++ {
		if err := m.Emit(Sample{At: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Samples()
	if len(got) != 3 || m.Len() != 3 {
		t.Fatalf("recorded %d samples, want 3", len(got))
	}
	for i, s := range got {
		if s.At != float64(i) {
			t.Fatalf("sample %d at %g", i, s.At)
		}
	}
}

func TestJSONLEmitterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []Sample{
		{At: 1, Created: 2, Delivered: 1, Buffered: 1, InFlight: 1, ArrivalRate: 0.5,
			Occupancy: map[packet.NodeID]int{3: 1}},
		{At: 2, Created: 4, Delivered: 3},
	}
	for _, s := range in {
		if err := j.Emit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out []Sample
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s Sample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line not parseable: %v", err)
		}
		out = append(out, s)
	}
	if len(out) != len(in) {
		t.Fatalf("round-tripped %d samples, want %d", len(out), len(in))
	}
	if out[0].Occupancy[3] != 1 || out[1].Created != 4 {
		t.Fatalf("round trip mangled samples: %+v", out)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestJSONLEmitterSurfacesWriteError(t *testing.T) {
	boom := errors.New("disk full")
	j, err := NewJSONL(failWriter{boom})
	if err != nil {
		t.Fatal(err)
	}
	// Small samples sit in the bufio buffer, so the failure surfaces at Close.
	if err := j.Emit(Sample{At: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want wrapped %v", err, boom)
	}
	// Once failed, the error sticks.
	if err := j.Emit(Sample{At: 2}); !errors.Is(err, boom) {
		t.Fatalf("Emit after failure = %v, want wrapped %v", err, boom)
	}
	if _, err := NewJSONL(nil); err == nil {
		t.Fatal("nil writer accepted")
	}
}

func TestPromFileEmitter(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	path := filepath.Join(t.TempDir(), "metrics.prom")
	p, err := NewPromFile(r, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Emit(Sample{At: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "c 7\n") {
		t.Fatalf("snapshot file = %q", b)
	}
	// A second emit replaces the snapshot.
	r.Counter("c").Inc()
	if err := p.Emit(Sample{At: 2}); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if !strings.Contains(string(b), "c 8\n") {
		t.Fatalf("snapshot not replaced: %q", b)
	}

	if _, err := NewPromFile(nil, path); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := NewPromFile(r, ""); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestMultiEmitter(t *testing.T) {
	var a, b Memory
	var buf bytes.Buffer
	j, _ := NewJSONL(&buf)
	m := MultiEmitter(&a, nil, &b, j)
	if err := m.Emit(Sample{At: 1}); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("fan-out missed an emitter")
	}
	if err := m.(interface{ Close() error }).Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Close did not flush the wrapped JSONL emitter")
	}
}

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if nilCfg.Sampling() {
		t.Fatal("nil config must not sample")
	}
	if err := (&Config{SampleEvery: -1}).Validate(); err == nil {
		t.Fatal("negative period accepted")
	}
	if err := (&Config{SampleEvery: 1}).Validate(); err == nil {
		t.Fatal("sampler without emitter accepted")
	}
	cfg := &Config{SampleEvery: 1, Emitter: &Memory{}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Sampling() {
		t.Fatal("valid sampler config must report Sampling")
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	cfg := map[string]any{"seed": int64(1), "policy": "rcad", "tau": 4.0}
	a, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(map[string]any{"tau": 4.0, "policy": "rcad", "seed": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config fingerprinted differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
	c, err := Fingerprint(map[string]any{"seed": int64(2), "policy": "rcad", "tau": 4.0})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different configs fingerprinted identically")
	}
	if _, err := Fingerprint(func() {}); err == nil {
		t.Fatal("unencodable value accepted")
	}
}

func TestHeapAlloc(t *testing.T) {
	if HeapAlloc() == 0 {
		t.Fatal("heap alloc reading must be non-zero in a live process")
	}
}
