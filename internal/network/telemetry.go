package network

import (
	"tempriv/internal/packet"
	"tempriv/internal/sim"
	"tempriv/internal/telemetry"
	"tempriv/internal/trace"
)

// telemetryState is the runner's telemetry attachment; nil is the disabled
// state. The metric handles inside are nil no-ops themselves when
// Config.Telemetry carries no registry.
type telemetryState struct {
	created     *telemetry.Counter
	delivered   *telemetry.Counter
	duplicates  *telemetry.Counter
	retransmits *telemetry.Counter
	linkDrops   *telemetry.Counter
	lost        *telemetry.Counter
	preempted   *telemetry.Counter
	simTime     *telemetry.Gauge
	latency     *telemetry.Histogram

	emitter    telemetry.Emitter
	sampleHeap bool
	probe      *sim.Probe

	lastAt        float64
	lastDelivered uint64
	err           error
}

// newTelemetryState builds the runner's telemetry attachment, or nil when
// telemetry is disabled.
func newTelemetryState(cfg *telemetry.Config) *telemetryState {
	if cfg == nil {
		return nil
	}
	reg := cfg.Registry
	return &telemetryState{
		created:     reg.Counter("tempriv_packets_created_total"),
		delivered:   reg.Counter("tempriv_packets_delivered_total"),
		duplicates:  reg.Counter("tempriv_duplicates_suppressed_total"),
		retransmits: reg.Counter("tempriv_retransmissions_total"),
		linkDrops:   reg.Counter("tempriv_link_drops_total"),
		lost:        reg.Counter("tempriv_lost_to_failures_total"),
		preempted:   reg.Counter("tempriv_preemptions_total"),
		simTime:     reg.Gauge("tempriv_sim_time"),
		latency:     reg.Histogram("tempriv_delivery_latency"),
		emitter:     cfg.Emitter,
		sampleHeap:  cfg.SampleHeap,
	}
}

// count updates the live counter of a packet lifecycle event. latency is
// the packet's age, observed for a delivery. Admissions, releases and
// frame losses have no counter.
func (t *telemetryState) count(kind trace.Kind, latency float64) {
	switch kind {
	case trace.Created:
		t.created.Inc()
	case trace.Delivered:
		t.delivered.Inc()
		t.latency.Observe(latency)
	case trace.Duplicate:
		t.duplicates.Inc()
	case trace.Retransmit:
		t.retransmits.Inc()
	case trace.LinkDrop:
		t.linkDrops.Inc()
	case trace.Lost:
		t.lost.Inc()
	case trace.Preempted:
		t.preempted.Inc()
	}
}

// attachSampler arms the sim-time sampler on the runner's scheduler. Probes
// never outlive the simulation's real events (see sim.Every), so sampling
// cannot extend a run.
func (r *runner) attachSampler() {
	tcfg := r.cfg.Telemetry
	if !tcfg.Sampling() {
		return
	}
	r.tele.probe = r.sched.Every(tcfg.SampleEvery, r.sample)
}

// sample emits one queue-state snapshot. On the first emitter error the
// probe stops and the error is surfaced from Run.
func (r *runner) sample(now float64) {
	t := r.tele
	if t.err != nil {
		return
	}
	s := r.buildSample(now)
	t.simTime.Set(now)
	if t.sampleHeap {
		s.HeapAllocBytes = telemetry.HeapAlloc()
	}
	if err := t.emitter.Emit(s); err != nil {
		t.err = err
		t.probe.Stop()
	}
	t.lastAt, t.lastDelivered = now, s.Delivered
}

// buildSample snapshots the live simulation state at sim time now.
func (r *runner) buildSample(now float64) telemetry.Sample {
	res := r.result
	var created uint64
	for _, f := range res.Flows {
		created += f.Created
	}
	var bufferDrops uint64
	occ := make(map[packet.NodeID]int, r.cfg.Topology.NodeCount())
	buffered := 0
	for _, n := range r.nodes {
		if n == nil || n.policy == nil {
			continue // the sink, an unused ID, or PolicyForward's bufferless node
		}
		ln := n.policy.Len()
		bufferDrops += n.policy.Stats().Drops
		occ[n.id] = ln
		buffered += ln
	}
	delivered := uint64(len(res.Deliveries))
	dropped := bufferDrops + res.LostToFailures + res.LinkDrops + res.DuplicatesSuppressed
	inFlight := int(created) - int(delivered) - int(dropped)
	if inFlight < 0 {
		inFlight = 0
	}
	t := r.tele
	rate := 0.0
	if dt := now - t.lastAt; dt > 0 {
		rate = float64(delivered-t.lastDelivered) / dt
	}
	return telemetry.Sample{
		At:          now,
		Created:     created,
		Delivered:   delivered,
		Dropped:     dropped,
		Retransmits: res.Retransmissions,
		Buffered:    buffered,
		InFlight:    inFlight,
		ArrivalRate: rate,
		Occupancy:   occ,
	}
}
