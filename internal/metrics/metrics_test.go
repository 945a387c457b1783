package metrics

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tempriv/internal/rng"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero-value Welford not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Fatalf("variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Fatalf("std = %v, want 2", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.Min() != 42 || w.Max() != 42 {
		t.Fatalf("single-obs stats wrong: %+v", w)
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset destroys naive sum-of-squares variance; Welford survives.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{offset + 1, offset + 2, offset + 3} {
		w.Add(x)
	}
	if math.Abs(w.Variance()-2.0/3.0) > 1e-6 {
		t.Fatalf("variance at large offset = %v, want 2/3", w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	src := rng.New(3)
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := src.Normal(10, 3)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v != sequential %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Fatalf("merged variance %v != sequential %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(&b) // both empty: no-op
	if a.Count() != 0 {
		t.Fatal("merging two empties produced observations")
	}
	b.Add(5)
	a.Merge(&b)
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merging into empty lost data")
	}
	var c Welford
	a.Merge(&c) // merging empty into non-empty: no-op
	if a.Count() != 1 {
		t.Fatal("merging empty changed accumulator")
	}
}

func TestMSEKnownValue(t *testing.T) {
	var m MSE
	m.Add(3, 1) // err 2, sq 4
	m.Add(0, 2) // err -2, sq 4
	m.Add(5, 5) // err 0
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
	if math.Abs(m.Value()-8.0/3.0) > 1e-12 {
		t.Fatalf("MSE = %v, want 8/3", m.Value())
	}
	if math.Abs(m.RMSE()-math.Sqrt(8.0/3.0)) > 1e-12 {
		t.Fatalf("RMSE = %v", m.RMSE())
	}
	if math.Abs(m.Bias()-0) > 1e-12 {
		t.Fatalf("bias = %v, want 0", m.Bias())
	}
}

func TestMSEEmpty(t *testing.T) {
	var m MSE
	if m.Value() != 0 || m.RMSE() != 0 {
		t.Fatal("empty MSE non-zero")
	}
}

func TestMSEBiasDetectsSystematicError(t *testing.T) {
	var m MSE
	for i := 0; i < 100; i++ {
		m.Add(float64(i)+10, float64(i)) // always overestimates by 10
	}
	if math.Abs(m.Bias()-10) > 1e-9 {
		t.Fatalf("bias = %v, want 10", m.Bias())
	}
	if math.Abs(m.Value()-100) > 1e-9 {
		t.Fatalf("MSE = %v, want 100", m.Value())
	}
}

func TestMSEMerge(t *testing.T) {
	var all, a, b MSE
	pairs := [][2]float64{{1, 0}, {2, 0}, {3, 5}, {4, 4}, {0, -3}}
	for i, p := range pairs {
		all.Add(p[0], p[1])
		if i < 2 {
			a.Add(p[0], p[1])
		} else {
			b.Add(p[0], p[1])
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || math.Abs(a.Value()-all.Value()) > 1e-12 {
		t.Fatalf("merged MSE %v (n=%d), want %v (n=%d)", a.Value(), a.Count(), all.Value(), all.Count())
	}
	if math.Abs(a.Bias()-all.Bias()) > 1e-12 {
		t.Fatalf("merged bias %v, want %v", a.Bias(), all.Bias())
	}
}

func TestTimeWeightedStepFunction(t *testing.T) {
	var tw TimeWeighted
	// Value 2 on [0,10), 5 on [10,20), 0 on [20,40).
	steps := []struct{ t, v float64 }{{0, 2}, {10, 5}, {20, 0}}
	for _, s := range steps {
		if err := tw.Observe(s.t, s.v); err != nil {
			t.Fatal(err)
		}
	}
	got := tw.Average(40)
	want := (2*10 + 5*10 + 0*20) / 40.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("time-weighted average = %v, want %v", got, want)
	}
	if tw.Max() != 5 {
		t.Fatalf("max = %v, want 5", tw.Max())
	}
}

func TestTimeWeightedRejectsReversedTime(t *testing.T) {
	var tw TimeWeighted
	if err := tw.Observe(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := tw.Observe(5, 2); !errors.Is(err, ErrTimeReversed) {
		t.Fatalf("reversed time: %v, want ErrTimeReversed", err)
	}
}

func TestTimeWeightedEmptyAndDegenerate(t *testing.T) {
	var tw TimeWeighted
	if tw.Average(100) != 0 {
		t.Fatal("empty average non-zero")
	}
	if err := tw.Observe(50, 3); err != nil {
		t.Fatal(err)
	}
	if tw.Average(50) != 0 {
		t.Fatal("zero-elapsed average non-zero")
	}
	if got := tw.Average(60); math.Abs(got-3) > 1e-12 {
		t.Fatalf("average = %v, want 3", got)
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.5, 1.0, 2.9, 4.999, 5.0, 100, -1} {
		h.Add(x)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	wantBins := []uint64{3, 1, 1, 0, 1} // -1 clamps into bin 0
	for i, want := range wantBins {
		if got := h.Bin(i); got != want {
			t.Fatalf("bin %d = %d, want %d", i, got, want)
		}
	}
	if h.Overflow() != 2 {
		t.Fatalf("overflow = %d, want 2", h.Overflow())
	}
	if math.Abs(h.Fraction(0)-3.0/8.0) > 1e-12 {
		t.Fatalf("fraction(0) = %v", h.Fraction(0))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 5); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewHistogram(1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram(1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 10) // uniform over [0,10)
	}
	q, err := h.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q < 4 || q > 6 {
		t.Fatalf("median = %v, want ≈ 5", q)
	}
	if _, err := h.Quantile(1.5); err == nil {
		t.Fatal("quantile > 1 accepted")
	}
	empty, err := NewHistogram(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Quantile(0.5); err == nil {
		t.Fatal("quantile of empty histogram accepted")
	}
}

func TestLatencyReport(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(float64(i))
	}
	r := l.Report()
	if r.Count != 100 {
		t.Fatalf("count = %d", r.Count)
	}
	if math.Abs(r.Mean-50.5) > 1e-12 {
		t.Fatalf("mean = %v, want 50.5", r.Mean)
	}
	if r.Min != 1 || r.Max != 100 {
		t.Fatalf("min/max = %v/%v", r.Min, r.Max)
	}
	if r.P50 < 45 || r.P50 > 55 {
		t.Fatalf("p50 = %v", r.P50)
	}
	if r.P95 < 90 || r.P95 > 100 {
		t.Fatalf("p95 = %v", r.P95)
	}
	if r.P99 < 95 || r.P99 > 100 {
		t.Fatalf("p99 = %v", r.P99)
	}
}

func TestLatencyInterleavedAddAndReport(t *testing.T) {
	var l Latency
	l.Add(3)
	l.Add(1)
	_ = l.Report() // reorders the samples
	l.Add(2)       // the next report selects over all three
	r := l.Report()
	if r.P50 != 2 {
		t.Fatalf("p50 after interleaved add = %v, want 2", r.P50)
	}
}

// TestLatencySelectionMatchesSort holds Report's selected percentiles to the
// sorted reference, bit for bit, for every n from 1 to 2000 on positive
// inputs with many duplicates, and on runs that are constant, ascending and
// descending.
func TestLatencySelectionMatchesSort(t *testing.T) {
	src := rng.New(20261019)
	check := func(name string, xs []float64) {
		t.Helper()
		var l Latency
		for _, x := range xs {
			l.Add(x)
		}
		r := l.Report()
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		n := len(xs)
		for _, c := range []struct {
			q   float64
			got float64
		}{{0.50, r.P50}, {0.95, r.P95}, {0.99, r.P99}} {
			want := sorted[int(c.q*float64(n-1))]
			if math.Float64bits(c.got) != math.Float64bits(want) {
				t.Fatalf("%s, n=%d: P%v = %v, sorted reference %v", name, n, c.q*100, c.got, want)
			}
		}
	}
	for n := 1; n <= 2000; n++ {
		levels := 1 + src.Intn(n) // a few distinct values, or nearly all distinct
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1 + float64(src.Intn(levels))*0.25
			if src.Intn(4) == 0 {
				xs[i] = 1 + src.Exponential(30)
			}
		}
		check("random", xs)
		if n%97 == 0 {
			for i := range xs {
				xs[i] = 4
			}
			check("constant", xs)
			for i := range xs {
				xs[i] = float64(1 + i)
			}
			check("ascending", xs)
			slices.Reverse(xs)
			check("descending", xs)
		}
	}
}

// Property: Welford mean/variance agree with the two-pass formulas.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, r := range raw {
			x := float64(r)
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		variance := ss / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MSE equals mean of squared differences for arbitrary pairs.
func TestMSEMatchesDirectProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var m MSE
		total := 0.0
		count := 0
		for i := 0; i+1 < len(raw); i += 2 {
			e, x := float64(raw[i]), float64(raw[i+1])
			m.Add(e, x)
			total += (e - x) * (e - x)
			count++
		}
		if count == 0 {
			return true
		}
		return math.Abs(m.Value()-total/float64(count)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting a stream of (estimate, truth) pairs at any point and
// merging the two accumulators equals the single-pass accumulator — the
// invariant parallel sweep reduction relies on.
func TestMSESplitMergeMatchesSinglePassProperty(t *testing.T) {
	f := func(raw []int8, cut uint8) bool {
		var pairs [][2]float64
		for i := 0; i+1 < len(raw); i += 2 {
			pairs = append(pairs, [2]float64{float64(raw[i]), float64(raw[i+1])})
		}
		var whole, left, right MSE
		split := 0
		if len(pairs) > 0 {
			split = int(cut) % (len(pairs) + 1)
		}
		for i, p := range pairs {
			whole.Add(p[0], p[1])
			if i < split {
				left.Add(p[0], p[1])
			} else {
				right.Add(p[0], p[1])
			}
		}
		left.Merge(&right)
		return left.Count() == whole.Count() &&
			math.Abs(left.Value()-whole.Value()) < 1e-9 &&
			math.Abs(left.Bias()-whole.Bias()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMeansIIDCoverage(t *testing.T) {
	// For i.i.d. normals the interval must contain the true mean the vast
	// majority of the time.
	covered := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		src := rng.New(uint64(trial) + 1000)
		samples := make([]float64, 2000)
		for i := range samples {
			samples[i] = src.Normal(10, 4)
		}
		r, err := BatchMeans(samples, 20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Mean-10) <= r.HalfWidth {
			covered++
		}
	}
	if covered < int(0.88*trials) {
		t.Fatalf("95%% interval covered the mean only %d/%d times", covered, trials)
	}
}

func TestBatchMeansKnownValues(t *testing.T) {
	// 4 batches of [1,1], [3,3], [5,5], [7,7]: batch means 1,3,5,7 →
	// grand mean 4, sample std sqrt(20/3).
	samples := []float64{1, 1, 3, 3, 5, 5, 7, 7}
	r, err := BatchMeans(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean != 4 || r.Batches != 4 {
		t.Fatalf("result = %+v", r)
	}
	want := 3.182 * math.Sqrt(20.0/3.0/4.0) // t(3 df) · s/√n
	if math.Abs(r.HalfWidth-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", r.HalfWidth, want)
	}
}

func TestBatchMeansValidation(t *testing.T) {
	if _, err := BatchMeans([]float64{1, 2, 3}, 1); err == nil {
		t.Fatal("1 batch accepted")
	}
	if _, err := BatchMeans([]float64{1}, 2); err == nil {
		t.Fatal("too few samples accepted")
	}
}

func TestBatchMeansHandlesCorrelatedPath(t *testing.T) {
	// An AR(1)-like path: naive i.i.d. CI would be far too tight; the
	// batch-means interval must still cover the true mean.
	src := rng.New(77)
	samples := make([]float64, 20000)
	x := 0.0
	for i := range samples {
		x = 0.95*x + src.Normal(0, 1)
		samples[i] = 5 + x
	}
	r, err := BatchMeans(samples, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Mean-5) > r.HalfWidth+0.5 {
		t.Fatalf("mean %v ± %v far from truth 5", r.Mean, r.HalfWidth)
	}
	if r.HalfWidth < 0.05 {
		t.Fatalf("half-width %v implausibly tight for a correlated path", r.HalfWidth)
	}
}
