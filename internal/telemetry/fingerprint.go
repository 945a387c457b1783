package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sync"
)

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

// heapObjectsMetric is runtime.MemStats.HeapAlloc under runtime/metrics:
// the bytes of live and not yet swept heap objects.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSample is HeapAlloc's read buffer. metrics.Read makes its argument
// escape, so a per-call buffer would cost a heap allocation on every
// sample; one shared buffer under a lock costs none.
var heapSample struct {
	sync.Mutex
	s [1]metrics.Sample
}

// HeapAlloc returns the current live-heap size. It reads runtime/metrics,
// which does not stop the world as runtime.ReadMemStats does, so every
// heap sample can afford it.
func HeapAlloc() uint64 {
	heapSample.Lock()
	defer heapSample.Unlock()
	heapSample.s[0].Name = heapObjectsMetric
	metrics.Read(heapSample.s[:])
	return heapSample.s[0].Value.Uint64()
}
