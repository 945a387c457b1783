package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
)

// Manifest records the provenance of one simulation run: what configuration
// produced it (as a stable fingerprint), how it was seeded, and how the run
// performed. Two runs with the same fingerprint and seed are replays of the
// same experiment; the perf fields give BENCH_*.json its data points.
type Manifest struct {
	// ConfigFingerprint is the hex SHA-256 of the canonical JSON encoding
	// of the run configuration (see Fingerprint). Identical configurations
	// fingerprint identically across processes and hosts.
	ConfigFingerprint string `json:"config_fingerprint"`
	// Seed is the run's RNG seed; fingerprint+seed fully determines the
	// simulated outcome.
	Seed int64 `json:"seed"`
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version"`
	// SimDuration is the simulated time span covered by the run.
	SimDuration float64 `json:"sim_duration"`
	// Events is the number of discrete events the scheduler processed.
	Events int `json:"events"`
	// Deliveries is the number of packets that reached the sink.
	Deliveries int `json:"deliveries"`
	// WallSeconds is the real time the run took.
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec is Events/WallSeconds — the kernel's throughput.
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakHeapBytes is the largest live-heap reading observed during the
	// run (at sampling points when the sampler runs, else at completion).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// Fingerprint returns the hex SHA-256 of v's canonical JSON encoding.
// encoding/json writes map keys in sorted order and struct fields in
// declaration order, so equal values always hash equally.
func Fingerprint(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("telemetry: fingerprinting config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// WriteJSON writes the manifest as indented JSON to path.
func (m *Manifest) WriteJSON(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding manifest: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry: writing manifest: %w", err)
	}
	return nil
}

// heapObjectsMetric is runtime.MemStats.HeapAlloc under runtime/metrics:
// the bytes of live and not yet swept heap objects.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSample is HeapAlloc's read buffer. metrics.Read makes its argument
// escape, so a per-call buffer would cost a heap allocation on every engine
// run; one shared buffer under a lock costs none.
var heapSample struct {
	sync.Mutex
	s [1]metrics.Sample
}

// HeapAlloc returns the current live-heap size. It reads runtime/metrics,
// which does not stop the world as runtime.ReadMemStats does, so every
// engine run and every heap sample can afford it.
func HeapAlloc() uint64 {
	heapSample.Lock()
	defer heapSample.Unlock()
	heapSample.s[0].Name = heapObjectsMetric
	metrics.Read(heapSample.s[:])
	return heapSample.s[0].Value.Uint64()
}
