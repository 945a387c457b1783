package main

import "tempriv/internal/obs"

// spanStats collects per-layer durations (in ms) from job span trees, the
// tree temprivd serves at /v1/traces/{id} and the in-process tracer
// renders for the sweep.
type spanStats struct {
	replicate, engineSelf, render      []float64
	ingress, queue, cacheGet, cachePut []float64
	chunk, chunksPerJob                []float64
	traces                             int
}

// add walks one trace. Open spans (duration -1) are skipped.
func (s *spanStats) add(t *obs.TraceTree) {
	if t == nil || t.Root == nil {
		return
	}
	s.traces++
	chunks := 0
	var walk func(n *obs.SpanTree)
	walk = func(n *obs.SpanTree) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.DurationNS < 0 {
			return
		}
		ms := float64(n.DurationNS) / 1e6
		switch n.Name {
		case "replicate":
			s.replicate = append(s.replicate, ms)
		case "engine":
			ivs := make([]interval, 0, len(n.Children))
			for _, c := range n.Children {
				if c.DurationNS >= 0 {
					ivs = append(ivs, interval{c.StartOffsetNS, c.StartOffsetNS + c.DurationNS})
				}
			}
			self := selfTime(n.StartOffsetNS, n.StartOffsetNS+n.DurationNS, ivs)
			s.engineSelf = append(s.engineSelf, float64(self)/1e6)
		case "render":
			s.render = append(s.render, ms)
		case "ingress":
			s.ingress = append(s.ingress, ms)
		case "queue":
			s.queue = append(s.queue, ms)
		case "cache":
			switch n.Attrs["op"] {
			case "get":
				s.cacheGet = append(s.cacheGet, ms)
			case "put":
				s.cachePut = append(s.cachePut, ms)
			}
		case "chunk":
			s.chunk = append(s.chunk, ms)
			chunks++
		}
	}
	walk(t.Root)
	s.chunksPerJob = append(s.chunksPerJob, float64(chunks))
}

// medianOr0 is the median, or 0 when the layer produced no spans (the
// workload never reaches it).
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// putLayers writes the span-derived per-layer metrics into m.
func (s *spanStats) putLayers(m map[string]float64) {
	// Replicates of different specs differ several-fold in cost (fig2a
	// and abl-linkloss on sweep), so the median would sit between the
	// modes; the mean is the per-replicate cost.
	m["experiment.replicate_ms"] = mean(s.replicate)
	m["scenario.engine_self_ms"] = medianOr0(s.engineSelf)
	m["scenario.render_ms"] = medianOr0(s.render)
	m["server.ingress_ms"] = medianOr0(s.ingress)
	m["jobs.queue_wait_ms"] = medianOr0(s.queue)
	if n := len(s.queue); n > 0 {
		p, _, _ := tailPercentile(n)
		m["jobs.queue_wait_tail_ms"] = percentile(append([]float64(nil), s.queue...), p)
		m["jobs.queue_wait_tail_pct"] = p
	}
	m["resultcache.get_ms"] = medianOr0(s.cacheGet)
	m["resultcache.put_ms"] = medianOr0(s.cachePut)
	m["resultstream.chunk_ms"] = medianOr0(s.chunk)
	if len(s.chunk) > 0 {
		m["resultstream.chunks_per_op"] = mean(s.chunksPerJob)
	}
}
