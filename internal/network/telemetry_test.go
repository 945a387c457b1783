package network

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"tempriv/internal/telemetry"
	"tempriv/internal/trace"
)

func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	plain, err := Run(lineConfig(t, 4, PolicyRCAD, 2, 200))
	if err != nil {
		t.Fatal(err)
	}
	cfg := lineConfig(t, 4, PolicyRCAD, 2, 200)
	cfg.Telemetry = &telemetry.Config{
		Registry:    telemetry.NewRegistry(),
		SampleEvery: 1.0,
		Emitter:     &telemetry.Memory{},
	}
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Deliveries, instrumented.Deliveries) {
		t.Fatal("telemetry changed the delivery sequence")
	}
	if plain.Duration != instrumented.Duration {
		t.Fatalf("telemetry changed the run duration: %v vs %v",
			plain.Duration, instrumented.Duration)
	}
}

// TestRegistryCountersMatchResult holds each live counter to the Result
// and to the trace. On a reliable RCAD line, on Figure 1 under ARQ with
// frame and ACK loss, on Figure 1 with frame loss and no ARQ, and on Figure
// 1 with a node failure, every counter must equal both the Result's count
// of its event and the number of trace events of its kind, and the latency
// histogram must hold every delivery. Between them the configs move every
// counter.
func TestRegistryCountersMatchResult(t *testing.T) {
	arq := figure1Config(t, PolicyRCAD, 1000)
	arq.Channel = &ChannelConfig{LossP: 0.2, AckLossP: 0.1}
	arq.ARQ = DefaultARQ()
	lossy := figure1Config(t, PolicyRCAD, 1000)
	lossy.Channel = &ChannelConfig{LossP: 0.1}
	failing := figure1Config(t, PolicyRCAD, 1000)
	failing.NodeFailures = []NodeFailure{{Node: 3, At: 100}}
	moved := make(map[string]bool)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"line", lineConfig(t, 3, PolicyRCAD, 2, 100)},
		{"figure1-arq", arq},
		{"figure1-lossy", lossy},
		{"figure1-failure", failing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			rec := &trace.Memory{}
			cfg := tc.cfg
			cfg.Telemetry = &telemetry.Config{Registry: reg}
			cfg.Tracer = rec
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			events := make(map[trace.Kind]uint64)
			for _, e := range rec.Events() {
				events[e.Kind]++
			}
			var created, preempted uint64
			for _, f := range res.Flows {
				created += f.Created
			}
			for _, n := range res.Nodes {
				preempted += n.Preemptions
			}
			for _, c := range []struct {
				metric string
				kind   trace.Kind
				want   uint64
			}{
				{"tempriv_packets_created_total", trace.Created, created},
				{"tempriv_packets_delivered_total", trace.Delivered, uint64(len(res.Deliveries))},
				{"tempriv_duplicates_suppressed_total", trace.Duplicate, res.DuplicatesSuppressed},
				{"tempriv_retransmissions_total", trace.Retransmit, res.Retransmissions},
				{"tempriv_link_drops_total", trace.LinkDrop, res.LinkDrops},
				{"tempriv_lost_to_failures_total", trace.Lost, res.LostToFailures},
				{"tempriv_preemptions_total", trace.Preempted, preempted},
			} {
				got := reg.Counter(c.metric).Value()
				if got != c.want || events[c.kind] != c.want {
					t.Errorf("%s = %d and %v trace events = %d, want the result's %d", c.metric, got, c.kind, events[c.kind], c.want)
				}
				if got > 0 {
					moved[c.metric] = true
				}
			}
			h := reg.Histogram("tempriv_delivery_latency")
			if h.Count() != uint64(len(res.Deliveries)) {
				t.Fatalf("latency observations = %d, want %d", h.Count(), len(res.Deliveries))
			}
			var sum float64
			for _, d := range res.Deliveries {
				sum += d.At - d.Truth.CreatedAt
			}
			if math.Abs(h.Sum()-sum) > 1e-9*math.Max(1, sum) {
				t.Fatalf("latency sum = %g, want %g", h.Sum(), sum)
			}
		})
	}
	if len(moved) != 7 {
		t.Fatalf("only %d of 7 counters moved in any config: %v", len(moved), moved)
	}
}

func TestSamplerEmitsConsistentTimeSeries(t *testing.T) {
	mem := &telemetry.Memory{}
	cfg := lineConfig(t, 4, PolicyRCAD, 2, 150)
	cfg.Telemetry = &telemetry.Config{SampleEvery: 1.0, Emitter: mem}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := mem.Samples()
	if len(samples) == 0 {
		t.Fatal("sampler produced no samples")
	}
	prev := 0.0
	for i, s := range samples {
		if s.At <= prev && i > 0 {
			t.Fatalf("sample times not increasing at %d: %v then %v", i, prev, s.At)
		}
		prev = s.At
		if s.At > res.Duration {
			t.Fatalf("sample at %v beyond run duration %v (probes extended the run)",
				s.At, res.Duration)
		}
		if s.Created < s.Delivered {
			t.Fatalf("sample %d delivered %d exceeds created %d", i, s.Delivered, s.Created)
		}
		buffered := 0
		for _, n := range s.Occupancy {
			buffered += n
		}
		if buffered != s.Buffered {
			t.Fatalf("sample %d buffered %d disagrees with occupancy sum %d",
				i, s.Buffered, buffered)
		}
		if s.InFlight < s.Buffered {
			t.Fatalf("sample %d in-flight %d below buffered %d", i, s.InFlight, s.Buffered)
		}
	}
	last := samples[len(samples)-1]
	if last.Created != 150 {
		t.Fatalf("final sample created = %d, want 150", last.Created)
	}
	// Cumulative counters are monotone across the series.
	for i := 1; i < len(samples); i++ {
		if samples[i].Delivered < samples[i-1].Delivered ||
			samples[i].Created < samples[i-1].Created {
			t.Fatalf("cumulative counters regressed at sample %d", i)
		}
	}
}

type failingEmitter struct{ err error }

func (f failingEmitter) Emit(telemetry.Sample) error { return f.err }

func TestSamplerEmitterErrorSurfaces(t *testing.T) {
	boom := errors.New("emitter broke")
	cfg := lineConfig(t, 3, PolicyRCAD, 2, 50)
	cfg.Telemetry = &telemetry.Config{SampleEvery: 1.0, Emitter: failingEmitter{boom}}
	if _, err := Run(cfg); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped %v", err, boom)
	}
}

func TestTelemetryConfigValidation(t *testing.T) {
	cfg := lineConfig(t, 2, PolicyRCAD, 5, 10)
	cfg.Telemetry = &telemetry.Config{SampleEvery: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative sample period accepted")
	}
	cfg.Telemetry = &telemetry.Config{SampleEvery: 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("sampler without emitter accepted")
	}
}
