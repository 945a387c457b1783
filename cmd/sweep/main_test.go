package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tempriv/internal/resultstream"
	"tempriv/internal/scenario"
)

func TestListMode(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleExperimentReducedSize(t *testing.T) {
	err := run([]string{"-exp", "erlang", "-packets", "100"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-exp", "fig2b",
		"-packets", "100",
		"-interarrivals", "2,20",
		"-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2b.txt", "fig2b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		if !strings.Contains(string(data), "NoDelay") {
			t.Fatalf("artifact %s missing expected column:\n%s", name, data)
		}
	}
}

func TestCommaSeparatedExperiments(t *testing.T) {
	err := run([]string{"-exp", "eq2-epi,eq4-bound"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplicateFlag(t *testing.T) {
	err := run([]string{
		"-exp", "fig2b",
		"-packets", "60",
		"-interarrivals", "5",
		"-replicate", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplicateParallelFlag(t *testing.T) {
	err := run([]string{
		"-exp", "fig2b",
		"-packets", "60",
		"-interarrivals", "5",
		"-replicate", "3",
		"-j", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadWorkerCount(t *testing.T) {
	if err := run([]string{"-exp", "fig2b", "-replicate", "2", "-j", "-1"}); err == nil {
		t.Fatal("-j -1 accepted")
	}
}

func TestWritesManifestsAndSummary(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-exp", "eq2-epi,eq4-bound",
		"-packets", "80",
		"-seed", "9",
		"-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first runManifest
	for i, id := range []string{"eq2-epi", "eq4-bound"} {
		b, err := os.ReadFile(filepath.Join(dir, id+".manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m runManifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("%s manifest not parseable: %v", id, err)
		}
		if m.Experiment != id || m.ConfigFingerprint == "" || m.Seed != 9 || m.GoVersion == "" {
			t.Fatalf("%s manifest incomplete: %+v", id, m)
		}
		if i == 0 {
			first = m
		} else if m.ConfigFingerprint == first.ConfigFingerprint {
			t.Fatal("different experiments share a config fingerprint")
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s sweepSummary
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != 2 || s.GoVersion == "" || s.TotalWallSeconds <= 0 {
		t.Fatalf("summary incomplete: %+v", s)
	}
}

func TestManifestFingerprintIgnoresSeed(t *testing.T) {
	read := func(seed string) runManifest {
		t.Helper()
		dir := t.TempDir()
		if err := run([]string{"-exp", "eq2-epi", "-packets", "50",
			"-seed", seed, "-out", dir}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "eq2-epi.manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m runManifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := read("3"), read("4")
	if a.ConfigFingerprint != b.ConfigFingerprint {
		t.Fatal("seed change altered the config fingerprint")
	}
	if a.Seed == b.Seed {
		t.Fatal("manifests lost the seed label")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadInterarrivals(t *testing.T) {
	if err := run([]string{"-exp", "fig2a", "-interarrivals", "2,banana"}); err == nil {
		t.Fatal("unparseable interarrivals accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats(" 2, 4.5 ,20")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4.5, 20}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRejectsBadFlagValues(t *testing.T) {
	cases := [][]string{
		{"-exp", "fig2a", "-replicate", "0"},
		{"-exp", "fig2a", "-packets", "-5"},
		{"-exp", "fig2a", "-mean-delay", "-1"},
		{"-exp", "fig2a", "-capacity", "-2"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestCacheHitsSecondSweep(t *testing.T) {
	cacheDir := t.TempDir()
	args := func(out string) []string {
		return []string{
			"-exp", "eq2-epi,eq4-bound",
			"-packets", "60",
			"-interarrivals", "4,8",
			"-cache", cacheDir,
			"-out", out,
		}
	}
	out1, out2 := t.TempDir(), t.TempDir()
	if err := run(args(out1)); err != nil {
		t.Fatal(err)
	}
	if err := run(args(out2)); err != nil {
		t.Fatal(err)
	}

	readSummary := func(dir string) sweepSummary {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "summary.json"))
		if err != nil {
			t.Fatal(err)
		}
		var s sweepSummary
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := readSummary(out1), readSummary(out2)
	if s1.CacheHits != 0 || s1.CacheMisses != 2 {
		t.Fatalf("first sweep cache counts: %+v", s1)
	}
	if s2.CacheHits != 2 || s2.CacheMisses != 0 {
		t.Fatalf("second sweep not fully cached: %+v", s2)
	}
	for _, m := range s2.Runs {
		if m.Cache != "hit" || m.SpecFingerprint == "" {
			t.Fatalf("run manifest missing cache provenance: %+v", m)
		}
	}

	// The cached replay is byte-identical to the fresh artifacts.
	for _, name := range []string{"eq2-epi.txt", "eq2-epi.csv", "eq4-bound.txt", "eq4-bound.csv"} {
		a, err := os.ReadFile(filepath.Join(out1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(out2, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("cached artifact %s differs from fresh run", name)
		}
	}
}

func TestCacheSeedChangeMisses(t *testing.T) {
	cacheDir := t.TempDir()
	base := []string{"-exp", "eq2-epi", "-packets", "50", "-cache", cacheDir}
	if err := run(append(base, "-seed", "1", "-out", t.TempDir())); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := run(append(base, "-seed", "2", "-out", out)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(out, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s sweepSummary
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.CacheHits != 0 || s.CacheMisses != 1 {
		t.Fatalf("changed seed should miss: %+v", s)
	}
}

func TestResumeFlagServesSurvivingChunks(t *testing.T) {
	// Baseline: an uninterrupted replicated sweep.
	baseDir := t.TempDir()
	args := []string{"-exp", "fig2b", "-packets", "60", "-interarrivals", "5", "-replicate", "4"}
	if err := run(append(args, "-out", baseDir)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(baseDir, "fig2b.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// Fake an interrupted -resume sweep: persist all four replicates the
	// way sweep would (same spec, same fingerprint), then drop the last
	// two frames as a crash would have.
	spec := scenario.Spec{
		Version: scenario.CurrentVersion,
		Experiment: &scenario.ExperimentSpec{
			ID: "fig2b", Packets: 60, Interarrivals: []float64{5}, Replicates: 4,
		},
	}
	spec, err = spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	chunksDir := t.TempDir()
	store, err := resultstream.Open(chunksDir, resultstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := store.Sink(fp, spec.Replicates(), resultstream.SinkHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(context.Background(), spec, scenario.Options{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	chunkPath := filepath.Join(chunksDir, fp+".chunks.jsonl")
	data, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	frames := bytes.SplitAfter(data, []byte("\n"))
	if len(frames) < 4 {
		t.Fatalf("expected 4 chunk frames, got %d", len(frames))
	}
	if err := os.WriteFile(chunkPath, bytes.Join(frames[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// The resumed sweep must produce byte-identical artifacts and clean up
	// the spent chunks.
	resumeOut := t.TempDir()
	if err := run(append(args, "-out", resumeOut, "-resume", chunksDir)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(resumeOut, "fig2b.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed sweep differs from uninterrupted sweep:\n%s\nvs\n%s", got, want)
	}
	if _, err := os.Stat(chunkPath); !os.IsNotExist(err) {
		t.Fatalf("chunk file survives after a finished sweep: %v", err)
	}
}
