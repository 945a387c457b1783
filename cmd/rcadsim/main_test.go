package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runOutput runs rcadsim with args and returns its stdout and error.
func runOutput(t *testing.T, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-out, runErr
}

func TestDefaultRun(t *testing.T) {
	if err := run([]string{"-packets", "100"}); err != nil {
		t.Fatal(err)
	}
}

func TestAllPoliciesRun(t *testing.T) {
	for _, policy := range []string{"no-delay", "delay-unlimited", "delay-droptail", "rcad"} {
		if err := run([]string{"-policy", policy, "-packets", "50", "-topo", "line", "-hops", "5"}); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
	}
}

func TestAllAdversariesRun(t *testing.T) {
	for _, adv := range []string{"baseline", "adaptive", "path-aware"} {
		if err := run([]string{"-adversary", adv, "-packets", "50", "-topo", "line", "-hops", "4"}); err != nil {
			t.Fatalf("adversary %s: %v", adv, err)
		}
	}
}

func TestAdversaryAgainstNoDelayFallsBack(t *testing.T) {
	// adaptive/path-aware degrade to baseline when there is no buffering
	// delay to model.
	for _, adv := range []string{"adaptive", "path-aware"} {
		if err := run([]string{"-policy", "no-delay", "-adversary", adv, "-packets", "30", "-topo", "line", "-hops", "3"}); err != nil {
			t.Fatalf("adversary %s vs no-delay: %v", adv, err)
		}
	}
}

func TestGridTopologyRun(t *testing.T) {
	if err := run([]string{"-topo", "grid", "-grid-w", "5", "-grid-h", "5", "-packets", "40"}); err != nil {
		t.Fatal(err)
	}
}

func TestRateControlRun(t *testing.T) {
	if err := run([]string{"-rate-control", "-packets", "100", "-topo", "line", "-hops", "6"}); err != nil {
		t.Fatal(err)
	}
}

func TestSealedRun(t *testing.T) {
	if err := run([]string{"-seal", "-packets", "40", "-topo", "line", "-hops", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestVictimAndDistFlags(t *testing.T) {
	if err := run([]string{"-victim", "oldest", "-delay-dist", "uniform", "-packets", "50", "-topo", "line", "-hops", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidFlags(t *testing.T) {
	cases := [][]string{
		{"-topo", "torus"},
		{"-policy", "teleport"},
		{"-adversary", "psychic"},
		{"-victim", "newest"},
		{"-delay-dist", "levy"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestTraceFlagWritesJSONL(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := run([]string{"-packets", "30", "-topo", "line", "-hops", "3", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// 30 packets × (1 created + 3 admitted + 3 released/preempted + 1 delivered).
	if len(lines) != 30*8 {
		t.Fatalf("trace has %d lines, want 240", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev["kind"] != "created" {
		t.Fatalf("first event = %v, want created", ev)
	}
}

func TestRandomTopologyRun(t *testing.T) {
	if err := run([]string{"-topo", "random", "-field-nodes", "80", "-field-radius", "2.2", "-packets", "40"}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsInvalidFlagValues(t *testing.T) {
	cases := map[string][]string{
		"zero interarrival":    {"-interarrival", "0"},
		"zero packets":         {"-packets", "0"},
		"negative mean delay":  {"-mean-delay", "-3"},
		"zero capacity":        {"-capacity", "0"},
		"zero tau":             {"-tau", "0"},
		"threshold at one":     {"-threshold", "1"},
		"threshold above one":  {"-threshold", "1.5"},
		"bad target loss":      {"-rate-control", "-target-loss", "0"},
		"zero hops":            {"-topo", "line", "-hops", "0"},
		"tiny grid":            {"-topo", "grid", "-grid-w", "1"},
		"one field node":       {"-topo", "random", "-field-nodes", "1"},
		"zero field radius":    {"-topo", "random", "-field-radius", "0"},
		"loss above one":       {"-link-loss", "1.5"},
		"negative loss":        {"-link-loss", "-0.1"},
		"ack loss without arq": {"-link-loss", "0.1", "-ack-loss", "0.1"},
		"negative arq retries": {"-arq", "-arq-retries", "-1"},
		"bad arq backoff":      {"-arq", "-arq-backoff", "0.5"},
		"zero sample every":    {"-sample-every", "0"},
		// Flags the chosen topology or mode ignores are range-checked too.
		"hops on figure1":               {"-topo", "figure1", "-hops", "0"},
		"target loss sans rate control": {"-target-loss", "1"},
		"arq backoff sans arq":          {"-arq-backoff", "0.5"},
		"burst loss sans burst":         {"-burst-loss", "2"},
		// The flags describe a scenario spec, so they take its bounds, and a
		// zero the spec would read as its default is rejected.
		"zero seed":                 {"-seed", "0"},
		"zero arq retries":          {"-arq", "-arq-retries", "0"},
		"too many packets":          {"-packets", "1000001"},
		"too many hops":             {"-topo", "line", "-hops", "1025"},
		"grid too wide":             {"-topo", "grid", "-grid-w", "257"},
		"too many field nodes":      {"-topo", "random", "-field-nodes", "1025"},
		"capacity too big":          {"-capacity", "4097"},
		"mean delay too long":       {"-mean-delay", "2e9"},
		"tau too long":              {"-tau", "2e6"},
		"interarrival too long":     {"-interarrival", "2e6"},
		"too many arq retries":      {"-arq", "-arq-retries", "101"},
		"arq backoff too big":       {"-arq", "-arq-backoff", "101"},
		"arq timeout too long":      {"-arq", "-arq-timeout", "2e6"},
		"short burst sans burst":    {"-burst-len", "0.5"},
		"short good run":            {"-burst", "-good-run", "0.5"},
		"node failing twice":        {"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-fail", "7@10,7@20"},
		"link loss not a number":    {"-link-loss", "NaN"},
		"arq timeout not a number":  {"-arq", "-arq-timeout", "NaN"},
		"arq backoff not a number":  {"-arq", "-arq-backoff", "NaN"},
		"failure time not a number": {"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-fail", "7@NaN"},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%s: args %v accepted", name, args)
		}
	}
}

func TestReplicateFlagRunsMultipleSeeds(t *testing.T) {
	if err := run([]string{"-packets", "50", "-topo", "line", "-hops", "4", "-replicate", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateFlagValidation(t *testing.T) {
	if err := run([]string{"-packets", "20", "-replicate", "0"}); err == nil {
		t.Fatal("-replicate 0 accepted")
	}
	tmp := t.TempDir()
	if err := run([]string{"-packets", "20", "-replicate", "2", "-trace", tmp + "/t.jsonl"}); err == nil {
		t.Fatal("-replicate with -trace accepted")
	}
}

// summaryMSE runs rcadsim with args and returns the per-flow MSE means of
// its replicate summary, or, without -replicate, the per-flow MSE of its
// report.
func summaryMSE(t *testing.T, args ...string) []float64 {
	t.Helper()
	stdout, err := runOutput(t, args)
	if err != nil {
		t.Fatal(err)
	}
	report := regexp.MustCompile(`(?m)^S\d+\s+\d+\s+\d+\s+\d+\s+\d+\s+\S+\s+\S+\s+(\S+)\s*$`)
	summary := regexp.MustCompile(`(?m)^S\d+\s+lat-mean \S+ ± \S+\s+\S+-MSE (\S+) ±`)
	re := report
	if strings.Contains(stdout, "replicates:") {
		re = summary
	}
	var out []float64
	for _, m := range re.FindAllStringSubmatch(stdout, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		t.Fatalf("rcadsim %v printed no per-flow MSE:\n%s", args, stdout)
	}
	return out
}

// TestReplicateSummaryMatchesSingleSeedRuns: a -replicate 3 summary's
// per-flow MSE mean is the mean of the three seeds run alone, for every
// adversary, the adaptive and path-aware ones included, which measure the
// arrivals of the run they score.
func TestReplicateSummaryMatchesSingleSeedRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-adversary", "baseline", "-topo", "line", "-hops", "8", "-packets", "300"},
		{"-adversary", "adaptive", "-topo", "line", "-hops", "8", "-packets", "300"},
		{"-adversary", "path-aware", "-packets", "300"},
	} {
		got := summaryMSE(t, append(args, "-replicate", "3")...)
		want := make([]float64, len(got))
		for seed := 1; seed <= 3; seed++ {
			for i, v := range summaryMSE(t, append(args, "-seed", strconv.Itoa(seed))...) {
				want[i] += v / 3
			}
		}
		for i := range got {
			// Both sides are printed to four significant digits.
			if math.Abs(got[i]-want[i]) > 2e-3*want[i] {
				t.Errorf("%v: flow S%d summary MSE %.4g, mean of single-seed runs %.4g", args, i+1, got[i], want[i])
			}
		}
	}
}
