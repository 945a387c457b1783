package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"tempriv/internal/packet"
)

// Sample is one sim-time snapshot of a running simulation: the §4 queue
// state an analyst (or a queue-state adversary) watches evolve. The network
// layer produces one Sample every Config.SampleEvery simulated time units.
type Sample struct {
	// At is the simulated time of the snapshot.
	At float64 `json:"at"`
	// Created, Delivered, Dropped and Retransmits are cumulative packet
	// counters up to At. Dropped totals every loss cause: buffer drops,
	// link-layer abandonment, node failures and suppressed duplicates.
	Created     uint64 `json:"created"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Retransmits uint64 `json:"retransmits"`
	// Buffered is the total packet count across all node buffers at At.
	Buffered int `json:"buffered"`
	// InFlight is created − delivered − dropped: packets somewhere between
	// their source and the sink (buffered or crossing a link).
	InFlight int `json:"in_flight"`
	// ArrivalRate is the sink arrival rate the adversary observes over the
	// window since the previous sample (deliveries per time unit).
	ArrivalRate float64 `json:"arrival_rate"`
	// Occupancy maps each buffering node to its buffered packet count at At.
	Occupancy map[packet.NodeID]int `json:"occupancy,omitempty"`
	// HeapAllocBytes is the process's live heap at sampling time, so long
	// runs expose memory growth on the same time axis as queue state.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
}

// Emitter consumes the sampler's time series. Emitters that buffer output
// also implement io.Closer; callers must Close them after the run and
// surface the error (a dropped flush silently truncates the series).
type Emitter interface {
	Emit(s Sample) error
}

// Memory retains every sample in order — the in-process emitter used by
// tests and by experiments that post-process the series. It is safe for
// concurrent use.
type Memory struct {
	mu      sync.Mutex
	samples []Sample
}

var _ Emitter = (*Memory)(nil)

// Emit implements Emitter.
func (m *Memory) Emit(s Sample) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, s)
	return nil
}

// Samples returns the recorded samples in emit order. The returned slice is
// a copy.
func (m *Memory) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Len returns the number of recorded samples.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples)
}

// JSONL streams samples as JSON Lines through an internal buffered writer.
// Close flushes the buffer and must be called on every exit path; Emit and
// Close return the first underlying write error.
type JSONL struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

var _ Emitter = (*JSONL)(nil)
var _ io.Closer = (*JSONL)(nil)

// NewJSONL returns an emitter writing one JSON object per sample to w. The
// caller retains ownership of w (Close flushes but does not close it).
func NewJSONL(w io.Writer) (*JSONL, error) {
	if w == nil {
		return nil, errors.New("telemetry: nil writer")
	}
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}, nil
}

// Emit implements Emitter. After the first error, subsequent samples are
// dropped and the error is returned again.
func (j *JSONL) Emit(s Sample) error {
	if j.err != nil {
		return j.err
	}
	if err := j.enc.Encode(s); err != nil {
		j.err = fmt.Errorf("telemetry: encoding sample: %w", err)
	}
	return j.err
}

// Close flushes the buffered samples and returns the first write error.
func (j *JSONL) Close() error {
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("telemetry: flushing samples: %w", err)
	}
	return j.err
}

// PromFile rewrites a file with a registry's Prometheus text snapshot on
// every sample — the textfile-collector pattern: a node-exporter (or a
// human with cat) reads the latest queue state of a long run without the
// simulator serving HTTP.
type PromFile struct {
	reg  *Registry
	path string
}

var _ Emitter = (*PromFile)(nil)

// NewPromFile returns an emitter snapshotting reg to path on every sample.
func NewPromFile(reg *Registry, path string) (*PromFile, error) {
	if reg == nil {
		return nil, errors.New("telemetry: nil registry")
	}
	if path == "" {
		return nil, errors.New("telemetry: empty snapshot path")
	}
	return &PromFile{reg: reg, path: path}, nil
}

// Emit implements Emitter: it atomically replaces the snapshot file.
func (p *PromFile) Emit(Sample) error {
	tmp := p.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("telemetry: snapshot: %w", err)
	}
	err = p.reg.WriteProm(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("telemetry: snapshot: %w", err)
	}
	return os.Rename(tmp, p.path)
}

// MultiEmitter fans samples out to several emitters, stopping at the first
// error. Closing it closes every wrapped emitter that implements io.Closer
// and returns the first close error.
func MultiEmitter(emitters ...Emitter) Emitter {
	return multiEmitter(emitters)
}

type multiEmitter []Emitter

// Emit implements Emitter.
func (m multiEmitter) Emit(s Sample) error {
	for _, e := range m {
		if e == nil {
			continue
		}
		if err := e.Emit(s); err != nil {
			return err
		}
	}
	return nil
}

// Close implements io.Closer.
func (m multiEmitter) Close() error {
	var first error
	for _, e := range m {
		if c, ok := e.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Config enables telemetry on a simulation run (network.Config.Telemetry).
// Registry and the sampler are independent: either may be set alone.
type Config struct {
	// Registry receives the live metric stream (counters on the simulation
	// hot path, the delivery-latency histogram, the sim-clock gauge). Nil
	// disables live metrics at near-zero cost.
	Registry *Registry
	// SampleEvery is the sim-time sampling period of the queue-state
	// sampler; 0 (or a nil Emitter) disables sampling.
	SampleEvery float64
	// Emitter receives one Sample every SampleEvery simulated time units.
	Emitter Emitter
	// SampleHeap additionally reads the live-heap size into each sample
	// (a runtime/metrics read per sample, which does not stop the world;
	// off by default for exact-determinism comparisons of emitted bytes
	// across hosts).
	SampleHeap bool
}

// Sampling reports whether the sim-time sampler is enabled.
func (c *Config) Sampling() bool {
	return c != nil && c.SampleEvery > 0 && c.Emitter != nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("telemetry: negative sample period %v", c.SampleEvery)
	}
	if c.SampleEvery > 0 && c.Emitter == nil {
		return errors.New("telemetry: SampleEvery set without an Emitter")
	}
	return nil
}
