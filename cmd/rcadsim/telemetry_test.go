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

func TestManifestStableAcrossIdenticalSeedRuns(t *testing.T) {
	dir := t.TempDir()
	read := func(name string) tempriv.RunManifest {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := run([]string{"-packets", "50", "-topo", "line", "-hops", "3",
			"-seed", "7", "-manifest", path}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m tempriv.RunManifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := read("a.json"), read("b.json")
	if a.ConfigFingerprint != b.ConfigFingerprint {
		t.Fatalf("identical-seed runs fingerprinted differently:\n%s\n%s",
			a.ConfigFingerprint, b.ConfigFingerprint)
	}
	if a.Seed != 7 || a.GoVersion == "" || a.Events == 0 || a.Deliveries == 0 {
		t.Fatalf("manifest missing fields: %+v", a)
	}
	// The simulated outcome is deterministic even though wall-clock isn't.
	if a.SimDuration != b.SimDuration || a.Events != b.Events || a.Deliveries != b.Deliveries {
		t.Fatalf("identical-seed runs disagree: %+v vs %+v", a, b)
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

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
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
	runErr := fn()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	text := <-out
	if runErr != nil {
		t.Fatal(runErr)
	}
	return text
}

// TestPromSnapshotMatchesReport: the -prom file holds the run's final
// counters and sim time, as the printed report does, not those of the
// sampler's last tick, which falls before the run's last delivery.
func TestPromSnapshotMatchesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.prom")
	stdout := captureStdout(t, func() error {
		return run([]string{"-policy", "delay-droptail", "-packets", "60", "-topo", "line", "-hops", "3",
			"-prom", out})
	})
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

// TestUnknownAdversaryCreatesNoArtifacts: an unknown -adversary is a flag
// error, caught before the run, so it creates neither the trace nor the
// telemetry file.
func TestUnknownAdversaryCreatesNoArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace, tel := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "tel.jsonl")
	err := run([]string{"-adversary", "bogus", "-packets", "50", "-trace", trace, "-telemetry", tel})
	if err == nil || !strings.Contains(err.Error(), `unknown adversary "bogus"`) {
		t.Fatalf("run = %v, want an unknown-adversary error", err)
	}
	for _, path := range []string{trace, tel} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after the rejected run (stat: %v)", filepath.Base(path), err)
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
