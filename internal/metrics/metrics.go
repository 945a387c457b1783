// Package metrics provides the streaming statistics the simulator reports:
// adversary estimation error (MSE, §2.1/§5.1), end-to-end latency, and
// buffer occupancy (time-weighted averages and distributions, §4).
//
// All accumulators are single-pass and numerically stable (Welford update),
// so a million-packet simulation does not lose precision or memory.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Welford accumulates count, mean and variance in a single numerically
// stable pass. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or 0 with none.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with none.
func (w *Welford) Max() float64 { return w.max }

// Merge folds another accumulator into w (parallel-sweep reduction) using
// the Chan et al. pairwise-combination formula.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// MSE accumulates the adversary's mean square estimation error
// Σ(x̂ᵢ − xᵢ)²/m (§2.1). The zero value is ready to use.
type MSE struct {
	n   uint64
	sum float64
	// bias tracks the mean signed error, useful for diagnosing whether an
	// adversary systematically over- or under-estimates.
	bias float64
}

// Add records one (estimate, truth) pair.
func (m *MSE) Add(estimate, truth float64) {
	err := estimate - truth
	m.n++
	m.sum += err * err
	m.bias += (err - m.bias) / float64(m.n)
}

// Count returns the number of estimates scored.
func (m *MSE) Count() uint64 { return m.n }

// Value returns the mean square error, or 0 with no observations.
func (m *MSE) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// RMSE returns the root mean square error.
func (m *MSE) RMSE() float64 { return math.Sqrt(m.Value()) }

// Bias returns the mean signed error (estimate − truth).
func (m *MSE) Bias() float64 { return m.bias }

// Merge folds another MSE accumulator into m.
func (m *MSE) Merge(o *MSE) {
	if o.n == 0 {
		return
	}
	n := m.n + o.n
	m.bias = (m.bias*float64(m.n) + o.bias*float64(o.n)) / float64(n)
	m.sum += o.sum
	m.n = n
}

// TimeWeighted integrates a right-continuous step function over simulated
// time — the buffer-occupancy process N(t) of §4. Observations must be fed
// in non-decreasing time order.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	startT   float64
	integral float64
	max      float64
}

// ErrTimeReversed is returned when an observation arrives before the
// previous one.
var ErrTimeReversed = errors.New("metrics: observation time decreased")

// Observe records that the tracked value changed to v at time t. The first
// call sets the integration origin.
func (tw *TimeWeighted) Observe(t, v float64) error {
	if !tw.started {
		tw.started = true
		tw.startT, tw.lastT, tw.lastV = t, t, v
		tw.max = v
		return nil
	}
	if t < tw.lastT {
		return fmt.Errorf("%w: %v after %v", ErrTimeReversed, t, tw.lastT)
	}
	tw.integral += tw.lastV * (t - tw.lastT)
	tw.lastT, tw.lastV = t, v
	if v > tw.max {
		tw.max = v
	}
	return nil
}

// Average returns the time-weighted average of the value up to time end.
// It returns 0 if nothing was observed or no time has elapsed.
func (tw *TimeWeighted) Average(end float64) float64 {
	if !tw.started || end <= tw.startT {
		return 0
	}
	total := tw.integral
	if end > tw.lastT {
		total += tw.lastV * (end - tw.lastT)
	}
	return total / (end - tw.startT)
}

// Max returns the largest value observed.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Histogram counts observations in fixed-width bins starting at zero, with
// an overflow bin for values beyond the last edge. It backs the occupancy-
// distribution validation against the Poisson pmf of §4.
type Histogram struct {
	width    float64
	counts   []uint64
	overflow uint64
	total    uint64
}

// NewHistogram returns a histogram with the given bin width and bin count.
// It returns an error if width <= 0 or bins < 1.
func NewHistogram(width float64, bins int) (*Histogram, error) {
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("metrics: histogram width must be positive and finite, got %v", width)
	}
	if bins < 1 {
		return nil, fmt.Errorf("metrics: histogram needs >= 1 bin, got %d", bins)
	}
	return &Histogram{width: width, counts: make([]uint64, bins)}, nil
}

// Add records one observation. Negative values clamp into the first bin.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < 0 {
		h.counts[0]++
		return
	}
	i := int(x / h.width)
	if i >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) uint64 { return h.counts[i] }

// Bins returns the number of regular bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Overflow returns the count beyond the last bin edge.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Fraction returns the empirical probability mass of bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from bin
// midpoints. It returns an error for an empty histogram or q outside [0,1].
func (h *Histogram) Quantile(q float64) (float64, error) {
	if h.total == 0 {
		return 0, errors.New("metrics: quantile of empty histogram")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("metrics: quantile %v outside [0,1]", q)
	}
	target := q * float64(h.total)
	cum := 0.0
	for i, c := range h.counts {
		cum += float64(c)
		if cum >= target {
			return (float64(i) + 0.5) * h.width, nil
		}
	}
	return float64(len(h.counts)) * h.width, nil
}

// BatchMeansResult is the outcome of a batch-means analysis.
type BatchMeansResult struct {
	// Mean is the grand mean across batches.
	Mean float64
	// HalfWidth is the 95% confidence half-width around Mean.
	HalfWidth float64
	// Batches is the number of batches used.
	Batches int
}

// tQuantile975 holds two-sided 95% Student-t quantiles by degrees of
// freedom; beyond the table the normal quantile 1.96 is close enough.
var tQuantile975 = map[int]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
	19: 2.093, 24: 2.064, 29: 2.045,
}

func tQuantile(df int) float64 {
	if q, ok := tQuantile975[df]; ok {
		return q
	}
	// Interpolate down to the nearest tabulated df below; the table is
	// dense where curvature matters and the quantile is monotone.
	for d := df; d >= 1; d-- {
		if q, ok := tQuantile975[d]; ok {
			return q
		}
	}
	return 1.96
}

// BatchMeans estimates a steady-state mean with a confidence interval from
// a single correlated sample path — the standard simulation-output
// methodology: split the path into batches long enough that batch means are
// approximately independent, then apply the Student-t interval to the batch
// means. It returns an error for fewer than 2 batches or too few samples to
// fill them.
func BatchMeans(samples []float64, batches int) (BatchMeansResult, error) {
	if batches < 2 {
		return BatchMeansResult{}, fmt.Errorf("metrics: batch means needs >= 2 batches, got %d", batches)
	}
	if len(samples) < batches {
		return BatchMeansResult{}, fmt.Errorf("metrics: %d samples cannot fill %d batches", len(samples), batches)
	}
	size := len(samples) / batches
	var grand Welford
	for b := 0; b < batches; b++ {
		var batch Welford
		for _, v := range samples[b*size : (b+1)*size] {
			batch.Add(v)
		}
		grand.Add(batch.Mean())
	}
	n := float64(batches)
	sampleVar := grand.Variance() * n / (n - 1)
	return BatchMeansResult{
		Mean:      grand.Mean(),
		HalfWidth: tQuantile(batches-1) * math.Sqrt(sampleVar/n),
		Batches:   batches,
	}, nil
}

// LatencyReport summarises an end-to-end latency distribution.
type LatencyReport struct {
	Count uint64
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Latency collects end-to-end delivery latencies and produces a summary.
// It keeps raw samples (packet counts in all experiments are bounded by the
// workload definitions, ≤ a few hundred thousand).
type Latency struct {
	w       Welford
	samples []float64
}

// Add records one delivery latency.
func (l *Latency) Add(v float64) {
	l.w.Add(v)
	l.samples = append(l.samples, v)
}

// Reset empties the collector for reuse, keeping room for n samples.
func (l *Latency) Reset(n int) {
	l.w = Welford{}
	l.samples = slices.Grow(l.samples[:0], n)
}

// Count returns the number of recorded latencies.
func (l *Latency) Count() uint64 { return l.w.Count() }

// Mean returns the average latency.
func (l *Latency) Mean() float64 { return l.w.Mean() }

// Report summarises the recorded latencies. Each percentile is the
// empirical q-quantile, the order statistic at index ⌊q·(n−1)⌋, found by
// selection rather than by sorting every sample. An order statistic's value
// does not depend on how it is found, and latencies are at least one hop's
// τ > 0, so there is no NaN, nor a ±0 whose sign an algorithm could pick.
// Report leaves the samples reordered.
func (l *Latency) Report() LatencyReport {
	r := LatencyReport{
		Count: l.w.Count(),
		Mean:  l.w.Mean(),
		Std:   l.w.Std(),
		Min:   l.w.Min(),
		Max:   l.w.Max(),
	}
	if n := len(l.samples); n > 0 {
		s := l.samples
		i50, i95, i99 := int(0.50*float64(n-1)), int(0.95*float64(n-1)), int(0.99*float64(n-1))
		// Each selection leaves nothing smaller after its index, so the
		// next, higher order statistic lies in the tail.
		selectNth(s, i50)
		selectNth(s[i50:], i95-i50)
		selectNth(s[i95:], i99-i95)
		r.P50, r.P95, r.P99 = s[i50], s[i95], s[i99]
	}
	return r
}

// selectNth reorders a so that a[k] holds the value sorting would put
// there, with nothing larger before it and nothing smaller after. It is
// quickselect with a median-of-three pivot and a three-way partition, so
// runs of equal values (an undelayed flow's latencies are all one value)
// stay linear; should the pivots keep failing, it sorts what is left, so
// the worst case is O(n log n). a must hold no NaN.
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			return
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z))
		// [lo, lt) < p, [lt, i) == p, [gt, hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}
