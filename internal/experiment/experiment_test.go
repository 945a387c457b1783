package experiment

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"tempriv/internal/report"
)

// testParams returns reduced-size parameters so the full suite stays fast
// while preserving every qualitative shape the tests assert.
func testParams() Params {
	p := Defaults()
	p.Packets = 400
	p.Interarrivals = []float64{2, 10, 20}
	return p
}

func mustRun(t *testing.T, id string, p Params) *report.Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(p)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatalf("%s: invalid table: %v", id, err)
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"fig2a", "fig2b", "fig3"} {
		if !seen[id] {
			t.Fatalf("figure experiment %q missing", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig2a" {
		t.Fatalf("ByID returned %q", e.ID)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if got, want := len(IDs()), len(All()); got != want {
		t.Fatalf("IDs() has %d entries, want %d", got, want)
	}
}

func TestParamsNormalization(t *testing.T) {
	p, err := (Params{}).normalized()
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults()
	if p.Packets != d.Packets || p.MeanDelay != d.MeanDelay || p.Capacity != d.Capacity {
		t.Fatalf("normalized zero params = %+v", p)
	}
	if _, err := (Params{Packets: -1}).normalized(); err == nil {
		t.Fatal("negative packets accepted")
	}
	if _, err := (Params{Capacity: -2}).normalized(); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := (Params{Interarrivals: []float64{0}}).normalized(); err == nil {
		t.Fatal("zero interarrival accepted")
	}
}

func TestParallelFor(t *testing.T) {
	var total atomic.Int64
	if err := parallelFor(100, func(i int) error {
		total.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", total.Load())
	}
	wantErr := errors.New("boom")
	err := parallelFor(10, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	// Fewer items than workers, or none, still complete.
	if err := parallelFor(0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := parallelFor(1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func columnIndex(t *testing.T, tab *report.Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("column %q not in %v", name, tab.Columns)
	return -1
}

func TestFig2aShape(t *testing.T) {
	p := testParams()
	tab := mustRun(t, "fig2a", p)
	if len(tab.Rows) != len(p.Interarrivals) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(p.Interarrivals))
	}
	noDelay := columnIndex(t, tab, "NoDelay")
	unlimited := columnIndex(t, tab, "Delay&UnlimitedBuffers")
	rcad := columnIndex(t, tab, "Delay&LimitedBuffers(RCAD)")

	for _, r := range tab.Rows {
		// Case 1: the adversary inverts the constant transmission delay
		// exactly.
		if r.Values[noDelay] > 1e-9 {
			t.Fatalf("NoDelay MSE at 1/λ=%s is %v, want ≈ 0", r.Label, r.Values[noDelay])
		}
		// Case 2: unbiased adversary leaves only delay variance ≈ h/µ².
		if v := r.Values[unlimited]; v < 8000 || v > 22000 {
			t.Fatalf("Unlimited MSE at 1/λ=%s is %v, want ≈ 1.35e4", r.Label, v)
		}
	}
	// Case 3 dominates at peak load and decays toward case 2.
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if first.Values[rcad] < 3*first.Values[unlimited] {
		t.Fatalf("RCAD MSE at 1/λ=2 (%v) not well above unlimited (%v)",
			first.Values[rcad], first.Values[unlimited])
	}
	if last.Values[rcad] > 1.6*last.Values[unlimited] {
		t.Fatalf("RCAD MSE at 1/λ=20 (%v) did not converge toward unlimited (%v)",
			last.Values[rcad], last.Values[unlimited])
	}
	if first.Values[rcad] < 2*last.Values[rcad] {
		t.Fatalf("RCAD MSE not decaying with 1/λ: %v → %v", first.Values[rcad], last.Values[rcad])
	}
}

func TestFig2bShape(t *testing.T) {
	p := testParams()
	tab := mustRun(t, "fig2b", p)
	noDelay := columnIndex(t, tab, "NoDelay")
	unlimited := columnIndex(t, tab, "Delay&UnlimitedBuffers")
	rcad := columnIndex(t, tab, "Delay&LimitedBuffers(RCAD)")

	for _, r := range tab.Rows {
		if math.Abs(r.Values[noDelay]-15) > 1e-9 {
			t.Fatalf("NoDelay latency at 1/λ=%s = %v, want exactly 15 (h·τ)", r.Label, r.Values[noDelay])
		}
		if v := r.Values[unlimited]; math.Abs(v-465) > 0.1*465 {
			t.Fatalf("Unlimited latency at 1/λ=%s = %v, want ≈ 465", r.Label, v)
		}
		if r.Values[rcad] < r.Values[noDelay] || r.Values[rcad] > r.Values[unlimited]*1.05 {
			t.Fatalf("RCAD latency at 1/λ=%s = %v not between NoDelay and Unlimited", r.Label, r.Values[rcad])
		}
	}
	// Paper: ≈2.5× latency reduction at 1/λ=2; our merge topology gives ≈2×.
	first := tab.Rows[0]
	factor := first.Values[unlimited] / first.Values[rcad]
	if factor < 1.7 {
		t.Fatalf("latency reduction factor at 1/λ=2 = %v, want ≥ 1.7 (paper: 2.5)", factor)
	}
	// Convergence at slow rates.
	last := tab.Rows[len(tab.Rows)-1]
	if last.Values[unlimited]/last.Values[rcad] > 1.15 {
		t.Fatalf("RCAD latency did not converge to unlimited at 1/λ=20: %v vs %v",
			last.Values[rcad], last.Values[unlimited])
	}
}

func TestFig3Shape(t *testing.T) {
	p := testParams()
	tab := mustRun(t, "fig3", p)
	base := columnIndex(t, tab, "BaselineAdversary")
	adaptive := columnIndex(t, tab, "AdaptiveAdversary")
	pathAware := columnIndex(t, tab, "PathAwareAdversary")
	preempt := columnIndex(t, tab, "preemption-rate")

	first := tab.Rows[0]
	// §5.4: the adaptive adversary significantly reduces (but does not
	// eliminate) the error at high traffic rates.
	if first.Values[adaptive] >= 0.8*first.Values[base] {
		t.Fatalf("adaptive MSE %v not well below baseline %v at 1/λ=2",
			first.Values[adaptive], first.Values[base])
	}
	if first.Values[adaptive] <= 0 {
		t.Fatal("adaptive adversary eliminated the error entirely")
	}
	// The path-aware extension is at least as strong as the flow-level
	// adaptive adversary under peak load.
	if first.Values[pathAware] > first.Values[adaptive]*1.05 {
		t.Fatalf("path-aware MSE %v above adaptive %v at 1/λ=2",
			first.Values[pathAware], first.Values[adaptive])
	}
	// Convergence at slow rates: all adversaries agree within noise.
	last := tab.Rows[len(tab.Rows)-1]
	if math.Abs(last.Values[adaptive]-last.Values[base]) > 0.25*last.Values[base] {
		t.Fatalf("adaptive (%v) and baseline (%v) did not converge at 1/λ=20",
			last.Values[adaptive], last.Values[base])
	}
	// Preemption rate decreases with 1/λ.
	if first.Values[preempt] <= last.Values[preempt] {
		t.Fatalf("preemption rate not decreasing: %v → %v", first.Values[preempt], last.Values[preempt])
	}
}

func TestEq2EPIShape(t *testing.T) {
	tab := mustRun(t, "eq2-epi", testParams())
	gaussExact := columnIndex(t, tab, "gauss-exact-MI")
	gaussBound := columnIndex(t, tab, "gauss-EPI-bound")
	expMI := columnIndex(t, tab, "exp-empirical-MI")
	expBound := columnIndex(t, tab, "exp-EPI-bound")
	for _, r := range tab.Rows {
		if math.Abs(r.Values[gaussExact]-r.Values[gaussBound]) > 1e-9 {
			t.Fatalf("EPI not tight for Gaussians at ratio %s: %v vs %v",
				r.Label, r.Values[gaussExact], r.Values[gaussBound])
		}
		if r.Values[expBound] > r.Values[expMI]+0.02 {
			t.Fatalf("EPI bound %v above empirical MI %v at ratio %s",
				r.Values[expBound], r.Values[expMI], r.Label)
		}
	}
}

func TestEq4BoundShape(t *testing.T) {
	tab := mustRun(t, "eq4-bound", testParams())
	mi := columnIndex(t, tab, "empirical-MI")
	bound := columnIndex(t, tab, "AV-bound")
	prevBound := 0.0
	for _, r := range tab.Rows {
		if r.Values[mi] > r.Values[bound]*1.05 {
			t.Fatalf("empirical MI %v exceeds AV bound %v at j=%s",
				r.Values[mi], r.Values[bound], r.Label)
		}
		if r.Values[bound] < prevBound {
			t.Fatalf("AV bound not increasing at j=%s", r.Label)
		}
		prevBound = r.Values[bound]
	}
}

func TestMMInfShape(t *testing.T) {
	tab := mustRun(t, "mm-inf", testParams())
	sim := columnIndex(t, tab, "mminf-sim")
	theory := columnIndex(t, tab, "mminf-Poisson(ρ)")
	kkSim := columnIndex(t, tab, "mmkk-sim")
	kkTheory := columnIndex(t, tab, "mmkk-analytic")
	tv, tvKK := 0.0, 0.0
	for _, r := range tab.Rows {
		tv += math.Abs(r.Values[sim] - r.Values[theory])
		if !math.IsNaN(r.Values[kkSim]) {
			tvKK += math.Abs(r.Values[kkSim] - r.Values[kkTheory])
		}
	}
	if tv/2 > 0.03 {
		t.Fatalf("M/M/∞ occupancy TV distance = %v, want < 0.03", tv/2)
	}
	if tvKK/2 > 0.03 {
		t.Fatalf("M/M/k/k occupancy TV distance = %v, want < 0.03", tvKK/2)
	}
}

func TestErlangShape(t *testing.T) {
	tab := mustRun(t, "erlang", testParams())
	sim := columnIndex(t, tab, "droptail-sim")
	theory := columnIndex(t, tab, "E(ρ,k)")
	preempt := columnIndex(t, tab, "rcad-preempt-sim")
	for _, r := range tab.Rows {
		if math.Abs(r.Values[sim]-r.Values[theory]) > 0.03 {
			t.Fatalf("drop rate %v vs Erlang %v at ρ=%s", r.Values[sim], r.Values[theory], r.Label)
		}
		// Preemption admits the newcomer and keeps the buffer saturated, so
		// its rate sits at or above the blocking probability.
		if r.Values[preempt]+0.02 < r.Values[theory] {
			t.Fatalf("preemption rate %v below Erlang loss %v at ρ=%s",
				r.Values[preempt], r.Values[theory], r.Label)
		}
	}
}

func TestAblVictimShape(t *testing.T) {
	tab := mustRun(t, "abl-victim", testParams())
	if len(tab.Columns) != 8 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	// Sanity: every MSE is positive under load.
	for _, r := range tab.Rows[:1] {
		for i, c := range tab.Columns {
			if strings.HasPrefix(c, "mse:") && r.Values[i] <= 0 {
				t.Fatalf("column %s non-positive at peak load", c)
			}
		}
	}
}

func TestAblDistRanking(t *testing.T) {
	tab := mustRun(t, "abl-dist", testParams())
	mse := columnIndex(t, tab, "adversary-MSE")
	byName := map[string]float64{}
	for _, r := range tab.Rows {
		byName[r.Label] = r.Values[mse]
	}
	// §3.2 max-entropy argument: exponential extracts the most MSE at equal
	// mean; degenerate distributions extract none.
	if !(byName["exponential"] > byName["pareto"] &&
		byName["pareto"] > byName["uniform"] &&
		byName["uniform"] > byName["constant"]) {
		t.Fatalf("MSE ranking wrong: %v", byName)
	}
	if byName["constant"] > 1e-9 || byName["none"] > 1e-9 {
		t.Fatalf("deterministic delays leaked MSE: %v", byName)
	}
}

func TestAblBufferTradeoff(t *testing.T) {
	tab := mustRun(t, "abl-buffer", testParams())
	mse := columnIndex(t, tab, "adversary-MSE")
	preempt := columnIndex(t, tab, "preemption-rate")
	lat := columnIndex(t, tab, "mean-latency")
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[preempt] > tab.Rows[i-1].Values[preempt]+0.02 {
			t.Fatalf("preemption rate not decreasing in k at row %d", i)
		}
		if tab.Rows[i].Values[lat] < tab.Rows[i-1].Values[lat]-5 {
			t.Fatalf("latency not increasing in k at row %d", i)
		}
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if first.Values[mse] < 3*last.Values[mse] {
		t.Fatalf("small-k MSE %v not well above large-k MSE %v", first.Values[mse], last.Values[mse])
	}
}

func TestAblMuConflict(t *testing.T) {
	tab := mustRun(t, "abl-mu", testParams())
	mse := columnIndex(t, tab, "adversary-MSE")
	occ := columnIndex(t, tab, "trunk-avg-occupancy")
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[mse] <= tab.Rows[i-1].Values[mse] {
			t.Fatalf("MSE not increasing with 1/µ at row %d", i)
		}
		if tab.Rows[i].Values[occ] <= tab.Rows[i-1].Values[occ] {
			t.Fatalf("occupancy not increasing with 1/µ at row %d", i)
		}
	}
}

func TestAblDecompTradeoff(t *testing.T) {
	tab := mustRun(t, "abl-decomp", testParams())
	mse := columnIndex(t, tab, "adversary-MSE")
	occ := columnIndex(t, tab, "near-sink-avg-occupancy")
	rows := map[string][]float64{}
	for _, r := range tab.Rows {
		rows[r.Label] = r.Values
	}
	uniform, light, heavy := rows["uniform"], rows["sink-light"], rows["sink-heavy"]
	if uniform == nil || light == nil || heavy == nil {
		t.Fatalf("schemes missing: %v", tab.Rows)
	}
	// §3.3: pushing delay away from the sink cuts near-sink occupancy while
	// raising MSE (Σmᵢ² grows when the split is uneven).
	if light[occ] >= uniform[occ] {
		t.Fatalf("sink-light occupancy %v not below uniform %v", light[occ], uniform[occ])
	}
	if light[mse] <= uniform[mse] {
		t.Fatalf("sink-light MSE %v not above uniform %v", light[mse], uniform[mse])
	}
	if heavy[occ] <= uniform[occ] {
		t.Fatalf("sink-heavy occupancy %v not above uniform %v", heavy[occ], uniform[occ])
	}
}

func TestOccupancyShape(t *testing.T) {
	p := testParams()
	tab := mustRun(t, "occupancy", p)
	if len(tab.Rows) != 48 {
		t.Fatalf("rows = %d, want 48 time points", len(tab.Rows))
	}
	wantCols := 8 + 3 // trunk nodes + buffered-total, in-flight, delivered
	if len(tab.Columns) != wantCols {
		t.Fatalf("columns = %v, want %d", tab.Columns, wantCols)
	}
	buffered := columnIndex(t, tab, "buffered-total")
	delivered := columnIndex(t, tab, "delivered")

	// At 1/λ=2 the trunk saturates: some sample should show a full k-slot
	// buffer, and none may exceed capacity.
	sawFull := false
	prevDelivered := -1.0
	for _, r := range tab.Rows {
		trunkSum := 0.0
		for c := 0; c < 8; c++ {
			v := r.Values[c]
			if v < 0 || v > float64(p.Capacity) {
				t.Fatalf("trunk occupancy %v at t=%s outside [0, k=%d]", v, r.Label, p.Capacity)
			}
			if v == float64(p.Capacity) {
				sawFull = true
			}
			trunkSum += v
		}
		if trunkSum > r.Values[buffered] {
			t.Fatalf("trunk occupancy %v exceeds network total %v at t=%s", trunkSum, r.Values[buffered], r.Label)
		}
		if r.Values[delivered] < prevDelivered {
			t.Fatalf("cumulative deliveries decreased at t=%s", r.Label)
		}
		prevDelivered = r.Values[delivered]
	}
	if !sawFull {
		t.Fatal("no sample shows a saturated trunk buffer at peak load")
	}
	// Replication must work: the row labels (sample times) are seed-independent.
	if _, err := ReplicateRun(Experiment{ID: "occupancy", Title: "t", Paper: "p", Run: Occupancy}, p, 2, ReplicateConfig{Workers: 1}); err != nil {
		t.Fatalf("occupancy not replicable: %v", err)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	p := testParams()
	p.Interarrivals = []float64{2}
	p.Packets = 200
	a := mustRun(t, "fig2a", p)
	b := mustRun(t, "fig2a", p)
	for i := range a.Rows {
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				t.Fatalf("non-deterministic result at row %d col %d: %v vs %v",
					i, j, a.Rows[i].Values[j], b.Rows[i].Values[j])
			}
		}
	}
}

func TestAblMixShape(t *testing.T) {
	tab := mustRun(t, "abl-mix", testParams())
	genie := columnIndex(t, tab, "genie-MSE(floor)")
	lat := columnIndex(t, tab, "mean-latency")
	peak := columnIndex(t, tab, "peak-occupancy")
	rows := map[string][]float64{}
	for _, r := range tab.Rows {
		rows[r.Label] = r.Values
	}
	noDelay, rcad, sg := rows["no-delay"], rows["rcad(k=10)"], rows["sg-mix"]
	threshold, timed := rows["threshold-mix(10)"], rows["timed-mix(30)"]
	if noDelay == nil || rcad == nil || sg == nil || threshold == nil || timed == nil {
		t.Fatalf("schemes missing: %v", tab.Rows)
	}
	if noDelay[genie] != 0 {
		t.Fatalf("no-delay genie MSE = %v, want 0", noDelay[genie])
	}
	// SG-mix (per-message exponential) buys the most variance; RCAD keeps
	// most of it with a bounded buffer and lower latency.
	if rcad[genie] < 0.5*sg[genie] {
		t.Fatalf("rcad genie MSE %v below half of sg-mix %v", rcad[genie], sg[genie])
	}
	if rcad[lat] >= sg[lat] {
		t.Fatalf("rcad latency %v not below sg-mix %v", rcad[lat], sg[lat])
	}
	if rcad[peak] > 10 {
		t.Fatalf("rcad peak occupancy %v exceeds its 10-slot buffer", rcad[peak])
	}
	if sg[peak] <= 10 {
		t.Fatalf("sg-mix peak occupancy %v suspiciously small (needs unbounded buffers)", sg[peak])
	}
	// Batch mixes collapse temporal privacy on a multi-hop network (§6).
	for name, r := range map[string][]float64{"threshold": threshold, "timed": timed} {
		if r[genie] > 0.25*rcad[genie] {
			t.Fatalf("%s-mix genie MSE %v not well below rcad %v", name, r[genie], rcad[genie])
		}
	}
}

func TestAblLatticeShape(t *testing.T) {
	tab := mustRun(t, "abl-lattice", testParams())
	raw := columnIndex(t, tab, "raw-MSE")
	lattice := columnIndex(t, tab, "lattice-MSE")
	recovered := columnIndex(t, tab, "exactly-recovered")
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	// Tiny delays: the lattice recovers nearly everything exactly.
	if first.Values[recovered] < 0.95 {
		t.Fatalf("recovery at 1/µ=%s = %v, want ≈ 1", first.Label, first.Values[recovered])
	}
	if first.Values[lattice] > 0.2*first.Values[raw]+1e-9 {
		t.Fatalf("lattice MSE %v not well below raw %v at tiny delay", first.Values[lattice], first.Values[raw])
	}
	// Paper-scale delays: snapping is useless.
	if last.Values[recovered] > 0.15 {
		t.Fatalf("recovery at 1/µ=%s = %v, want ≈ 0", last.Label, last.Values[recovered])
	}
	if last.Values[lattice] < 0.8*last.Values[raw] {
		t.Fatalf("lattice MSE %v below raw %v at large delay", last.Values[lattice], last.Values[raw])
	}
	// Recovery fraction decreases monotonically (within tolerance).
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[recovered] > tab.Rows[i-1].Values[recovered]+0.05 {
			t.Fatalf("recovery fraction not decreasing at row %d", i)
		}
	}
}

func TestSortReorderShape(t *testing.T) {
	tab := mustRun(t, "sort-reorder", testParams())
	sim := columnIndex(t, tab, "swap-prob-sim")
	analytic := columnIndex(t, tab, "swap-prob ½λ/(λ+µ)")
	disp := columnIndex(t, tab, "mean-rank-displacement")
	for i, r := range tab.Rows {
		if math.Abs(r.Values[sim]-r.Values[analytic]) > 0.005 {
			t.Fatalf("row %s: empirical swap %v vs closed form %v", r.Label, r.Values[sim], r.Values[analytic])
		}
		if i > 0 {
			if r.Values[sim] <= tab.Rows[i-1].Values[sim] {
				t.Fatalf("swap probability not increasing with 1/µ at row %d", i)
			}
			if r.Values[disp] <= tab.Rows[i-1].Values[disp] {
				t.Fatalf("rank displacement not increasing with 1/µ at row %d", i)
			}
		}
	}
	// Swap probability approaches the ½ ceiling at long delays.
	last := tab.Rows[len(tab.Rows)-1]
	if last.Values[sim] < 0.45 {
		t.Fatalf("swap probability at longest delay = %v, want → 0.5", last.Values[sim])
	}
}

func TestAblLinkLossShape(t *testing.T) {
	tab := mustRun(t, "abl-linkloss", testParams())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 loss points", len(tab.Rows))
	}
	ratio := columnIndex(t, tab, "delivery-ratio")
	retx := columnIndex(t, tab, "retx/packet")
	mse := columnIndex(t, tab, "adversary-MSE")

	// p = 0: perfect delivery, zero ARQ work.
	if r := tab.Rows[0]; r.Values[ratio] != 1 || r.Values[retx] != 0 {
		t.Fatalf("lossless row = %v", r.Values)
	}
	// Monotone sanity across the sweep: retransmissions grow with p, and
	// delivery never improves as the channel worsens.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[retx] <= tab.Rows[i-1].Values[retx] {
			t.Fatalf("retx/packet not increasing at row %d: %v vs %v",
				i, tab.Rows[i].Values[retx], tab.Rows[i-1].Values[retx])
		}
		if tab.Rows[i].Values[ratio] > tab.Rows[i-1].Values[ratio]+1e-9 {
			t.Fatalf("delivery ratio rose with loss at row %d", i)
		}
	}
	// ARQ with 3 retries absorbs 20% loss almost entirely.
	if last := tab.Rows[len(tab.Rows)-1]; last.Values[ratio] < 0.95 {
		t.Fatalf("delivery ratio at p=0.2 = %v, want ≥ 0.95", last.Values[ratio])
	}
	// Privacy must not lean on a reliable channel: MSE stays positive and
	// within 3× of the lossless point across the sweep.
	base := tab.Rows[0].Values[mse]
	for _, r := range tab.Rows {
		if r.Values[mse] <= 0 || r.Values[mse] > 3*base || r.Values[mse] < base/3 {
			t.Fatalf("MSE %v at p=%s far from lossless %v", r.Values[mse], r.Label, base)
		}
	}
}
