// Command sweep regenerates the paper's evaluation artifacts: every figure
// (2a, 2b, 3), the analytic validations, and the ablations indexed in
// DESIGN.md.
//
// Usage:
//
//	sweep -exp fig2a                 # one experiment to stdout
//	sweep -exp all -out results/     # everything, plus CSV files
//	sweep -list                      # show the registry
//
// Reduced-size runs for quick iteration:
//
//	sweep -exp fig3 -packets 200 -interarrivals 2,10,20
//
// Replication across seeds is partitioned over worker goroutines — one per
// CPU by default — each reusing a pool of arena-backed simulation engines,
// with a deterministic merge so the output is byte-identical to the serial
// -j 1 form:
//
//	sweep -exp fig2b -replicate 8        # -j defaults to all CPUs
//	sweep -exp fig2b -replicate 8 -j 1   # force the serial path
//
// Result caching — repeated sweeps of identical scenarios reuse the
// fingerprint-keyed result cache (the same engine and cache cmd/temprivd
// serves over HTTP) instead of re-simulating:
//
//	sweep -exp all -cache ~/.cache/tempriv
//
// Crash-resumable sweeps — with -resume, every replicate is persisted to a
// checksummed chunk store as it completes, and a re-run of the same command
// (same directory) resumes from the surviving replicates instead of
// recomputing them, with byte-identical output:
//
//	sweep -exp fig2b -replicate 32 -resume ./chunks
//
// With -out, every experiment also gets an <id>.manifest.json recording
// its configuration fingerprint, seed and wall-clock, and the whole sweep
// a summary.json aggregating them (cache hit/miss counts included).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tempriv"
	"tempriv/internal/buildinfo"
	"tempriv/internal/profiling"
	"tempriv/internal/resultcache"
	"tempriv/internal/resultstream"
	"tempriv/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		exp           = fs.String("exp", "all", "experiment id to run, or \"all\"")
		list          = fs.Bool("list", false, "list registered experiments and exit")
		out           = fs.String("out", "", "directory to write <id>.txt, <id>.csv and <id>.manifest.json into (optional)")
		cacheDir      = fs.String("cache", "", "result-cache directory: identical scenarios replay cached tables instead of re-simulating")
		resumeDir     = fs.String("resume", "", "result-chunk directory: persist each replicate as it completes and resume interrupted sweeps from the surviving chunks")
		seed          = fs.Uint64("seed", 0, "random seed (0 = paper default)")
		packets       = fs.Int("packets", 0, "packets per source (0 = paper default 1000)")
		interarrivals = fs.String("interarrivals", "", "comma-separated 1/λ sweep (default 2..20)")
		meanDelay     = fs.Float64("mean-delay", 0, "mean per-hop buffering delay 1/µ (0 = paper default 30)")
		capacity      = fs.Int("capacity", 0, "buffer slots k (0 = paper default 10)")
		replicate     = fs.Int("replicate", 1, "run each experiment under N consecutive seeds and report mean ± 95% CI")
		repWorkers    = fs.Int("j", 0, "replication worker goroutines (0 = one per CPU; output stays byte-identical to -j 1)")
		keepChunks    = fs.Bool("keep-chunks", false, "with -resume, keep each experiment's replicate chunks after it completes instead of removing them")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile to this file on exit")
		version       = fs.Bool("version", false, "print build identity and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("sweep"))
		return nil
	}

	if *list {
		for _, e := range tempriv.Experiments() {
			fmt.Printf("%-11s %-22s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}

	// Everything below validates before the first byte of stdout: bad flags
	// produce one stderr diagnostic and a non-zero exit, never a partial
	// table.
	if *repWorkers < 0 {
		return fmt.Errorf("-j must be >= 0, got %d", *repWorkers)
	}
	if *repWorkers == 0 {
		*repWorkers = runtime.GOMAXPROCS(0)
	}
	if *replicate < 1 {
		return fmt.Errorf("-replicate must be >= 1, got %d", *replicate)
	}
	if *packets < 0 {
		return fmt.Errorf("-packets must be >= 0, got %d", *packets)
	}
	if *meanDelay < 0 {
		return fmt.Errorf("-mean-delay must be >= 0, got %v", *meanDelay)
	}
	if *capacity < 0 {
		return fmt.Errorf("-capacity must be >= 0, got %d", *capacity)
	}
	var ias []float64
	if *interarrivals != "" {
		var err error
		if ias, err = parseFloats(*interarrivals); err != nil {
			return fmt.Errorf("parsing -interarrivals: %w", err)
		}
	}

	// Profiles are registered after validation and flushed on every exit
	// path, error returns included; cleanups run in reverse registration
	// order, so the profile writes always precede their files' closes.
	cleanups, profErr := profiling.Start(*cpuProfile, *memProfile)
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			err = errors.Join(err, cleanups[i]())
		}
	}()
	if profErr != nil {
		return profErr
	}

	var selected []tempriv.Experiment
	if *exp == "all" {
		selected = tempriv.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := tempriv.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	// Each experiment becomes a scenario spec — the same document the
	// temprivd server accepts — validated up front and executed through the
	// shared scenario engine, so CLI results and served results are
	// interchangeable cache citizens.
	specs := make([]scenario.Spec, len(selected))
	for i, e := range selected {
		spec := scenario.Spec{
			Version: scenario.CurrentVersion,
			Experiment: &scenario.ExperimentSpec{
				ID:            e.ID,
				Seed:          *seed,
				Packets:       *packets,
				Interarrivals: ias,
				MeanDelay:     *meanDelay,
				Capacity:      *capacity,
				Replicates:    *replicate,
			},
		}
		normalized, err := spec.Normalize()
		if err != nil {
			return fmt.Errorf("scenario for %s: %w", e.ID, err)
		}
		specs[i] = normalized
	}

	var cache *resultcache.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = resultcache.Open(*cacheDir, 0); err != nil {
			return err
		}
	}
	var chunks *resultstream.Store
	if *resumeDir != "" {
		var err error
		if chunks, err = resultstream.Open(*resumeDir, resultstream.Options{}); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
	}

	// p mirrors the normalized scenario parameters for the legacy
	// (seed-free) config fingerprint the per-run manifests record.
	p := tempriv.DefaultParams()
	first := specs[0].Experiment
	p.Seed = first.Seed
	p.Packets = first.Packets
	p.Interarrivals = first.Interarrivals
	p.MeanDelay = first.MeanDelay
	p.Capacity = first.Capacity

	var manifests []runManifest
	var hits, misses, resumedReps int
	sweepStart := time.Now()
	for i, e := range selected {
		spec := specs[i]
		fp, err := spec.Fingerprint()
		if err != nil {
			return fmt.Errorf("fingerprinting %s: %w", e.ID, err)
		}
		fmt.Printf("== %s (%s) ==\n", e.ID, e.Paper)
		start := time.Now()
		var text, csv, scenarioManifest []byte
		cacheState := ""
		if cache != nil {
			entry, ok, err := cache.Get(fp)
			if err != nil {
				return fmt.Errorf("result cache get %s: %w", e.ID, err)
			}
			if ok {
				text, csv, scenarioManifest = entry.TableText, entry.TableCSV, entry.Manifest
				cacheState = "hit"
				hits++
			} else {
				cacheState = "miss"
				misses++
			}
		}
		if text == nil {
			runOpts := scenario.Options{ReplicateWorkers: *repWorkers}
			var sink *resultstream.Sink
			if chunks != nil {
				var err error
				sink, err = chunks.Sink(fp, spec.Replicates(), resultstream.SinkHooks{
					Quarantined: func(n int) {
						fmt.Fprintf(os.Stderr, "sweep: %s: %d corrupt chunk(s) quarantined; recomputing their replicates\n", e.ID, n)
					},
					AppendError: func(err error) {
						fmt.Fprintf(os.Stderr, "sweep: %s: chunk append failed (resume degraded): %v\n", e.ID, err)
					},
				})
				if err != nil {
					return fmt.Errorf("opening chunk store for %s: %w", e.ID, err)
				}
				// Assigned only when non-nil: a typed-nil sink would pass the
				// engine's interface check and then panic on use.
				runOpts.Sink = sink
				if n := sink.Persisted(); n > 0 {
					fmt.Fprintf(os.Stderr, "sweep: %s: resuming, %d of %d replicate(s) already persisted\n", e.ID, n, spec.Replicates())
				}
			}
			outcome, err := scenario.Run(context.Background(), spec, runOpts)
			if sink != nil {
				resumedReps += sink.Skipped()
				if cerr := sink.Close(); cerr != nil {
					fmt.Fprintf(os.Stderr, "sweep: %s: closing chunk writer: %v\n", e.ID, cerr)
				}
			}
			if err != nil {
				return fmt.Errorf("running %s: %w", e.ID, err)
			}
			if chunks != nil && !*keepChunks {
				// The experiment completed; its per-replicate chunks have
				// served their purpose.
				if err := chunks.Remove(fp); err != nil {
					fmt.Fprintf(os.Stderr, "sweep: %s: removing finished chunks: %v\n", e.ID, err)
				}
			}
			text, csv = outcome.TableText, outcome.TableCSV
			if scenarioManifest, err = outcome.ManifestJSON(); err != nil {
				return err
			}
			if cache != nil {
				if err := cache.Put(&resultcache.Entry{
					Fingerprint: fp, TableText: text, TableCSV: csv, Manifest: scenarioManifest,
				}); err != nil {
					// A failed store costs the next sweep a re-run, nothing
					// more; warn and keep sweeping.
					fmt.Fprintf(os.Stderr, "sweep: caching %s: %v\n", e.ID, err)
				}
			}
		}
		wall := time.Since(start).Seconds()
		if _, err := os.Stdout.Write(text); err != nil {
			return fmt.Errorf("rendering %s: %w", e.ID, err)
		}
		fmt.Println()
		if *out != "" {
			if err := writeArtifacts(*out, e.ID, text, csv); err != nil {
				return err
			}
			m, err := newRunManifest(e.ID, p, *replicate, wall)
			if err != nil {
				return fmt.Errorf("fingerprinting %s: %w", e.ID, err)
			}
			m.SpecFingerprint = fp
			m.Cache = cacheState
			if err := writeJSON(filepath.Join(*out, e.ID+".manifest.json"), m); err != nil {
				return fmt.Errorf("writing %s manifest: %w", e.ID, err)
			}
			manifests = append(manifests, m)
		}
	}

	if cache != nil {
		fmt.Printf("result cache: %d hit(s), %d miss(es)\n", hits, misses)
	}
	if chunks != nil && resumedReps > 0 {
		fmt.Printf("resume: %d replicate(s) served from surviving chunks\n", resumedReps)
	}
	if *out != "" && len(manifests) > 0 {
		summary := sweepSummary{
			GoVersion:        runtime.Version(),
			TotalWallSeconds: time.Since(sweepStart).Seconds(),
			CacheHits:        hits,
			CacheMisses:      misses,
			Runs:             manifests,
		}
		if err := writeJSON(filepath.Join(*out, "summary.json"), summary); err != nil {
			return fmt.Errorf("writing sweep summary: %w", err)
		}
	}
	return nil
}

// runManifest records one experiment run's provenance, mirroring the
// per-simulation manifests network.Run produces: what configuration ran
// (fingerprinted without the seed, which labels the replicate series), the
// seed-inclusive scenario fingerprint the result cache is keyed by, and how
// long it took.
type runManifest struct {
	Experiment        string  `json:"experiment"`
	ConfigFingerprint string  `json:"config_fingerprint"`
	SpecFingerprint   string  `json:"spec_fingerprint,omitempty"`
	Cache             string  `json:"cache,omitempty"`
	Seed              uint64  `json:"seed"`
	Replicates        int     `json:"replicates,omitempty"`
	GoVersion         string  `json:"go_version"`
	WallSeconds       float64 `json:"wall_seconds"`
}

// sweepSummary aggregates a whole sweep's manifests into one artifact.
type sweepSummary struct {
	GoVersion        string        `json:"go_version"`
	TotalWallSeconds float64       `json:"total_wall_seconds"`
	CacheHits        int           `json:"cache_hits"`
	CacheMisses      int           `json:"cache_misses"`
	Runs             []runManifest `json:"runs"`
}

func newRunManifest(id string, p tempriv.Params, replicates int, wall float64) (runManifest, error) {
	// Seed is an execution label, not configuration: two runs differing
	// only there fingerprint identically.
	fp, err := tempriv.ConfigFingerprint(map[string]any{
		"experiment":    id,
		"packets":       p.Packets,
		"interarrivals": p.Interarrivals,
		"mean_delay":    p.MeanDelay,
		"capacity":      p.Capacity,
		"tau":           p.Tau,
		"threshold":     p.Threshold,
		"replicates":    replicates,
	})
	if err != nil {
		return runManifest{}, err
	}
	m := runManifest{
		Experiment:        id,
		ConfigFingerprint: fp,
		Seed:              p.Seed,
		GoVersion:         runtime.Version(),
		WallSeconds:       wall,
	}
	if replicates > 1 {
		m.Replicates = replicates
	}
	return m, nil
}

func writeArtifacts(dir, id string, text, csv []byte) error {
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), text, 0o644); err != nil {
		return fmt.Errorf("writing %s.txt: %w", id, err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".csv"), csv, 0o644); err != nil {
		return fmt.Errorf("writing %s.csv: %w", id, err)
	}
	return nil
}

func writeJSON(path string, v any) (err error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
