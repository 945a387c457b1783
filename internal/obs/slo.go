package obs

import (
	"fmt"
	"sync"
	"time"

	"tempriv/internal/clock"
	"tempriv/internal/telemetry"
)

// Every SLO's burn rates cover two trailing windows, kept in buckets a
// tenth of the fast window wide so the fast burn rate tracks with ~10%
// time resolution; the bucket ring spans the slow window.
const (
	sloFastWindow  = 5 * time.Minute
	sloSlowWindow  = time.Hour
	sloBucketWidth = sloFastWindow / 10
	sloBuckets     = int(sloSlowWindow/sloBucketWidth) + 1
)

// SLO is one latency objective ("99% of cached results < 50ms") evaluated
// on the same span clock as the tracer and exported through the telemetry
// registry as Prometheus-style series:
//
//	tempriv_slo_<name>_good_total       cumulative in-objective observations
//	tempriv_slo_<name>_bad_total        cumulative out-of-objective observations
//	tempriv_slo_<name>_objective        the configured objective (e.g. 0.99)
//	tempriv_slo_<name>_threshold_seconds the latency threshold
//	tempriv_slo_<name>_burn_rate_fast   burn rate over the fast window
//	tempriv_slo_<name>_burn_rate_slow   burn rate over the slow window
//
// Burn rate is the standard multi-window definition: the observed bad
// fraction over a trailing window divided by the error budget (1 −
// objective). Burn 1.0 means the service is consuming budget exactly as
// fast as the objective allows; a fast-window burn ≫ 1 paired with a slow-
// window burn > 1 is the page-worthy signal (fast alone is noise, slow
// alone is stale). Windowed state lives in a fixed ring of coarse buckets,
// so an SLO costs O(1) memory regardless of traffic.
//
// A nil *SLO is the disabled handle: Observe and Sync no-op, so call
// sites wire SLOs unconditionally.
type SLO struct {
	name      string
	objective float64
	threshold time.Duration
	clock     clock.Clock

	good  *telemetry.Counter
	bad   *telemetry.Counter
	bFast *telemetry.Gauge
	bSlow *telemetry.Gauge

	mu      sync.Mutex
	buckets [sloBuckets]sloBucket // ring covering the slow window
}

// sloBucket accumulates one sloBucketWidth-wide interval of observations.
type sloBucket struct {
	epoch     int64 // which interval this bucket currently holds
	good, bad uint64
}

// SLOOptions configure one objective.
type SLOOptions struct {
	// Name keys the exported series (metric-name characters only:
	// [a-z0-9_]); e.g. "cached_result".
	Name string
	// Objective is the target good fraction, in (0, 1); e.g. 0.99.
	Objective float64
	// Threshold is the latency bound an observation must beat to count
	// as good.
	Threshold time.Duration
	// Clock places observations in the burn-rate windows (nil =
	// clock.Real).
	Clock clock.Clock
}

// NewSLO registers an objective's series on reg and returns the live SLO.
// A nil registry still yields a working SLO (counters become no-op nil
// handles); invalid options return an error.
func NewSLO(reg *telemetry.Registry, o SLOOptions) (*SLO, error) {
	if o.Name == "" {
		return nil, fmt.Errorf("obs: SLO needs a name")
	}
	for i := 0; i < len(o.Name); i++ {
		c := o.Name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return nil, fmt.Errorf("obs: SLO name %q: want [a-z0-9_]", o.Name)
		}
	}
	if o.Objective <= 0 || o.Objective >= 1 {
		return nil, fmt.Errorf("obs: SLO %s objective %v outside (0, 1)", o.Name, o.Objective)
	}
	if o.Threshold <= 0 {
		return nil, fmt.Errorf("obs: SLO %s needs a positive threshold, got %v", o.Name, o.Threshold)
	}
	if o.Clock == nil {
		o.Clock = clock.Real
	}
	prefix := "tempriv_slo_" + o.Name
	s := &SLO{
		name:      o.Name,
		objective: o.Objective,
		threshold: o.Threshold,
		clock:     o.Clock,
		good:      reg.Counter(prefix + "_good_total"),
		bad:       reg.Counter(prefix + "_bad_total"),
		bFast:     reg.Gauge(prefix + "_burn_rate_fast"),
		bSlow:     reg.Gauge(prefix + "_burn_rate_slow"),
	}
	reg.Gauge(prefix + "_objective").Set(o.Objective)
	reg.Gauge(prefix + "_threshold_seconds").Set(o.Threshold.Seconds())
	return s, nil
}

// Name returns the SLO's name ("" on nil).
func (s *SLO) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Observe classifies one latency against the threshold and records it.
func (s *SLO) Observe(d time.Duration) {
	if s == nil {
		return
	}
	good := d <= s.threshold
	if good {
		s.good.Inc()
	} else {
		s.bad.Inc()
	}
	epoch := s.epoch()
	s.mu.Lock()
	b := &s.buckets[int(epoch%int64(len(s.buckets)))]
	if b.epoch != epoch {
		// The ring lapped this slot; the interval it held has aged out of
		// even the slow window.
		*b = sloBucket{epoch: epoch}
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
	s.mu.Unlock()
}

// epoch numbers the sloBucketWidth-wide interval the clock now reads.
func (s *SLO) epoch() int64 { return s.clock.Now().UnixNano() / int64(sloBucketWidth) }

// windowTotals sums buckets younger than window.
func (s *SLO) windowTotals(nowEpoch int64, window time.Duration) (good, bad uint64) {
	span := int64(window / sloBucketWidth)
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.epoch > nowEpoch-span && b.epoch <= nowEpoch {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// burn returns bad-fraction / error-budget over the window (0 with no
// observations: an idle service burns no budget).
func (s *SLO) burn(nowEpoch int64, window time.Duration) float64 {
	good, bad := s.windowTotals(nowEpoch, window)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - s.objective)
}

// Sync recomputes the burn-rate gauges from the current window state. The
// server calls it before every /metrics scrape so the exported burn rates
// are as fresh as the scrape.
func (s *SLO) Sync() {
	if s == nil {
		return
	}
	nowEpoch := s.epoch()
	s.mu.Lock()
	fast := s.burn(nowEpoch, sloFastWindow)
	slow := s.burn(nowEpoch, sloSlowWindow)
	s.mu.Unlock()
	s.bFast.Set(fast)
	s.bSlow.Set(slow)
}

// BurnRates returns the current (fast, slow) burn rates without touching
// the gauges — the programmatic read path.
func (s *SLO) BurnRates() (fast, slow float64) {
	if s == nil {
		return 0, 0
	}
	nowEpoch := s.epoch()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.burn(nowEpoch, sloFastWindow), s.burn(nowEpoch, sloSlowWindow)
}

// SLOSet is a group of objectives synced together (the /metrics hook).
type SLOSet []*SLO

// Sync refreshes every member's burn-rate gauges.
func (set SLOSet) Sync() {
	for _, s := range set {
		s.Sync()
	}
}
