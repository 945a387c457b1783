package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tempriv"
	"tempriv/internal/scenario"
)

func TestTelemetryFlagWritesParseableSeries(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	if err := run([]string{"-packets", "60", "-topo", "line", "-hops", "4",
		"-telemetry", out, "-sample-every", "1.0"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("telemetry series has %d samples, want a dense series", len(lines))
	}
	var last tempriv.TelemetrySample
	for i, line := range lines {
		var s tempriv.TelemetrySample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("sample %d not parseable: %v", i, err)
		}
		if i > 0 && s.At <= last.At {
			t.Fatalf("sample times not increasing at %d", i)
		}
		last = s
	}
	if last.Created != 60 || last.Delivered == 0 {
		t.Fatalf("final sample %+v, want 60 created and some delivered", last)
	}
}

// readManifest reads a -manifest file.
func readManifest(t *testing.T, path string) runManifest {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m runManifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestStableAcrossIdenticalSeedRuns(t *testing.T) {
	dir := t.TempDir()
	read := func(name string) runManifest {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := run([]string{"-packets", "50", "-topo", "line", "-hops", "3",
			"-seed", "7", "-manifest", path}); err != nil {
			t.Fatal(err)
		}
		return readManifest(t, path)
	}
	a, b := read("a.json"), read("b.json")
	if a.SpecFingerprint != b.SpecFingerprint {
		t.Fatalf("identical-seed runs fingerprinted differently:\n%s\n%s",
			a.SpecFingerprint, b.SpecFingerprint)
	}
	if len(a.SpecFingerprint) != 64 || a.Seed != 7 || a.GoVersion == "" || a.Events == 0 ||
		a.Deliveries == 0 || a.PeakHeapBytes == 0 {
		t.Fatalf("manifest missing fields: %+v", a)
	}
	// The simulated outcome is deterministic even though wall-clock isn't.
	if a.SimDuration != b.SimDuration || a.Events != b.Events || a.Deliveries != b.Deliveries {
		t.Fatalf("identical-seed runs disagree: %+v vs %+v", a, b)
	}
}

// TestManifestFingerprintIsSpecFingerprint: the manifest names the run by
// its scenario spec's fingerprint, seed included, and -replicate, which
// adds seeds after the base run, leaves it alone.
func TestManifestFingerprintIsSpecFingerprint(t *testing.T) {
	dir := t.TempDir()
	read := func(name string, args ...string) runManifest {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := run(append(args, "-packets", "40", "-topo", "line", "-hops", "3", "-manifest", path)); err != nil {
			t.Fatal(err)
		}
		return readManifest(t, path)
	}
	spec, err := scenario.Parse([]byte(`{"version":1,"simulation":{"topology":{"kind":"line","hops":3},"packets":40,"seed":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got := read("a.json", "-seed", "5").SpecFingerprint; got != want {
		t.Errorf("manifest fingerprint %s, spec fingerprint %s", got, want)
	}
	if got := read("b.json", "-seed", "5", "-replicate", "3").SpecFingerprint; got != want {
		t.Errorf("-replicate 3 changed the fingerprint to %s", got)
	}
	if got := read("c.json", "-seed", "6").SpecFingerprint; got == want {
		t.Error("a different seed kept the fingerprint")
	}
}

func TestManifestWriteJSON(t *testing.T) {
	m := &runManifest{SpecFingerprint: "abc", Seed: 7, GoVersion: "go1.22", Events: 10, PeakHeapBytes: 3}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.writeJSON(path); err != nil {
		t.Fatal(err)
	}
	if got := readManifest(t, path); got != *m {
		t.Fatalf("round trip = %+v, want %+v", got, *m)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"spec_fingerprint": "abc"`) {
		t.Fatalf("manifest does not key the fingerprint as spec_fingerprint:\n%s", b)
	}
}

// TestSampledHeapFeedsManifestPeak: with a sampler running, every sample
// carries a heap reading, and the manifest's peak is at least the largest.
func TestSampledHeapFeedsManifestPeak(t *testing.T) {
	dir := t.TempDir()
	series, manifest := filepath.Join(dir, "out.jsonl"), filepath.Join(dir, "m.json")
	if err := run([]string{"-packets", "100", "-topo", "line", "-hops", "3",
		"-telemetry", series, "-sample-every", "5", "-manifest", manifest}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s tempriv.TelemetrySample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if s.HeapAllocBytes == 0 {
			t.Fatal("a sample has no heap reading")
		}
		peak = max(peak, s.HeapAllocBytes)
	}
	if m := readManifest(t, manifest); m.PeakHeapBytes < peak {
		t.Fatalf("manifest peak heap %d below sampled peak %d", m.PeakHeapBytes, peak)
	}
}

func TestPromFlagWritesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.prom")
	if err := run([]string{"-packets", "40", "-topo", "line", "-hops", "3",
		"-prom", out, "-sample-every", "2"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		"# TYPE tempriv_packets_created_total counter",
		"tempriv_packets_created_total 40",
		"# TYPE tempriv_delivery_latency histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prom snapshot missing %q:\n%s", want, text)
		}
	}
}

// TestPromSnapshotMatchesReport: the -prom file holds the run's final
// counters and sim time, as the printed report does, not those of the
// sampler's last tick, which falls before the run's last delivery.
func TestPromSnapshotMatchesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.prom")
	stdout, err := runOutput(t, []string{"-policy", "delay-droptail", "-packets", "60", "-topo", "line", "-hops", "3",
		"-prom", out})
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`deliveries=(\d+) sim-duration=(\S+)`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no run manifest line in the report:\n%s", stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	prom := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			prom[name] = value
		}
	}
	if got := prom["tempriv_packets_delivered_total"]; got != m[1] {
		t.Errorf("snapshot delivered %s, report %s", got, m[1])
	}
	wantTime, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := strconv.ParseFloat(prom["tempriv_sim_time"], 64); err != nil || got != wantTime {
		t.Errorf("snapshot sim time %q, report %v", prom["tempriv_sim_time"], wantTime)
	}
}

// TestUnknownAdversaryCreatesNoArtifacts: a config error is found when the
// flags are compiled into a spec, before the run, so it creates neither the
// trace nor the telemetry file, and the error names the bad value.
func TestUnknownAdversaryCreatesNoArtifacts(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-adversary", "bogus"}, `"bogus"`},
		{[]string{"-policy", "delay-droptail", "-rate-control"}, `"delay-droptail"`},
		{[]string{"-fail", "999@10"}, "node 999"},
		{[]string{"-topo", "line", "-hops", "3", "-fail", "0@10"}, "node 0"},
		{[]string{"-burst", "-burst-len", "0.5"}, "mean_burst_len 0.5"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		trace, tel := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "tel.jsonl")
		err := run(append(c.args, "-packets", "50", "-trace", trace, "-telemetry", tel))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("rcadsim %v = %v, want an error naming %s", c.args, err, c.want)
		}
		for _, path := range []string{trace, tel} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("rcadsim %v: %s exists after the rejected run (stat: %v)", c.args, filepath.Base(path), err)
			}
		}
	}
}

func TestDebugServerServesEndpoints(t *testing.T) {
	reg := tempriv.NewTelemetryRegistry()
	reg.Counter("tempriv_test_total").Add(5)
	srv, err := startDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "tempriv_test_total 5") {
		t.Fatalf("/metrics = %q", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "tempriv") {
		t.Fatalf("/debug/vars missing the tempriv var: %q", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ index unexpected: %q", body)
	}
}

func TestPprofFlagRuns(t *testing.T) {
	if err := run([]string{"-packets", "30", "-topo", "line", "-hops", "3",
		"-pprof-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryUnwritablePathFails(t *testing.T) {
	if err := run([]string{"-packets", "10", "-topo", "line", "-hops", "2",
		"-telemetry", "/nonexistent-dir/out.jsonl"}); err == nil {
		t.Fatal("unwritable telemetry path accepted")
	}
}
