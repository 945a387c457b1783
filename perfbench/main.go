// Command perfbench is tempriv's end-to-end benchmark. One invocation runs
// one workload against the real program, checks every output it gets, and
// prints its metrics: the end-to-end set from an untraced run, or the
// per-layer set (plus the tracing overhead) from a traced one.
//
//	perfbench --workload sweep|serve-cold|cluster-hot --seed N --seconds S --trace 0|1 \
//	    --bin <dir with temprivd, temprivgw> --state <state dir>
//
// perfbench/run.sh builds the binaries and supplies --bin and --state; see
// perfbench/README.md for the workloads and metric definitions.
//
// Human-readable report lines go to standard output first; the last line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. The
// exit status is non-zero when any output check fails or the run is void.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	binDir   string
	stateDir string
	nproc    int
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "op/s"},
	{"goodput_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json
// order. A layer a workload never reaches reads 0.
var perLayer = []metricDef{
	{"sim.cpu_share", "ratio"},
	{"network.cpu_share", "ratio"},
	{"buffer.cpu_share", "ratio"},
	{"adversary.cpu_share", "ratio"},
	{"rng.cpu_share", "ratio"},
	{"experiment.cpu_share", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"experiment.allocs_per_op", "count"},
	{"experiment.alloc_bytes_per_op", "B"},
	{"experiment.parallel_efficiency", "ratio"},
	{"experiment.replicate_ms", "ms"},
	{"scenario.engine_self_ms", "ms"},
	{"scenario.render_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.ingress_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.queue_wait_tail_ms", "ms"},
	{"jobs.attempts_per_op", "count"},
	{"resultcache.get_ms", "ms"},
	{"resultcache.put_ms", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultstream.chunk_ms", "ms"},
	{"resultstream.chunks_per_op", "count"},
	{"server.cpu_ms_per_op", "ms"},
	{"server.write_syscalls_per_op", "count"},
	{"server.write_bytes_per_op", "B"},
	{"gateway.cpu_ms_per_op", "ms"},
	{"gateway.overhead_ms", "ms"},
	{"gateway.dispatches_per_op", "count"},
	{"gateway.hedged_reads_per_op", "count"},
	{"gateway.spills_per_op", "count"},
	{"gateway.failovers", "count"},
	{"gateway.sheds", "count"},
	{"peering.replicated_per_op", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// problems lists every failed output check and every reason the run
	// is void; any entry makes the run incorrect.
	problems []string
	// metrics holds end-to-end values (untraced run) or per-layer values
	// (traced run), by name.
	metrics map[string]float64
	// notes are extra report lines: sample counts, percentile levels,
	// load settings.
	notes []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 && args[0] == "--spin" {
		return spinMain(runtime.NumCPU())
	}
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// One load process, never more Go threads running than CPUs.
	runtime.GOMAXPROCS(cfg.nproc)

	procs := &procSet{}
	defer procs.stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		procs.stopAll()
		os.Exit(1)
	}()

	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(cfg.stateDir, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	env := describeEnv(cfg, runDir)
	// The machine's speed is measured before the set-up, all through the
	// timed phase and after it; see calib.go.
	cal := &calibrator{nproc: cfg.nproc}
	if err := cal.measure(calSlices, calWarmUp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var out *outcome
	switch cfg.workload {
	case "sweep":
		out, err = runSweep(cfg, cal)
	case "serve-cold":
		out, err = runServeCold(cfg, procs, runDir, cal)
	case "cluster-hot":
		out, err = runClusterHot(cfg, procs, runDir, cal)
	}
	procs.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !cfg.trace {
		atReferenceSpeed(out.metrics, cfg.workload, cal.slowdown())
	}
	out.note("machine: %d calibration slices, median %.2f ms CPU per kernel, %.2f ms wall (reference %.0f ms), spread %.3f",
		len(cal.slices), median(cal.cpu), median(cal.slices), calRefMS, cal.spread())
	env["gomaxprocs"] = procs.gomaxprocs(cfg.nproc)
	return report(os.Stdout, cfg, env, out)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "sweep, serve-cold or cluster-hot")
	seed := fs.Uint64("seed", 1, "workload seed: generates every input the program sees")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	binDir := fs.String("bin", "", "directory holding the temprivd and temprivgw binaries")
	stateDir := fs.String("state", "", "directory for the daemons' state (removed after the run)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		binDir:   *binDir,
		stateDir: *stateDir,
		nproc:    runtime.NumCPU(),
	}
	switch {
	case cfg.workload != "sweep" && cfg.workload != "serve-cold" && cfg.workload != "cluster-hot":
		return cfg, fmt.Errorf("--workload must be sweep, serve-cold or cluster-hot, got %q", cfg.workload)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case cfg.seconds <= 0:
		return cfg, errors.New("--seconds must be positive")
	case cfg.binDir == "" || cfg.stateDir == "":
		return cfg, errors.New("--bin and --state are required (perfbench/run.sh sets them)")
	}
	return cfg, nil
}

// describeEnv records what a result depends on besides the code.
func describeEnv(cfg config, runDir string) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"traced":     cfg.trace,
		"nproc":      cfg.nproc,
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"state_fs":   fsType(runDir),
	}
}

func cpuModel() string {
	var model string
	_ = scanKV("/proc/cpuinfo", func(k, v string) {
		if k == "model name" && model == "" {
			model = v
		}
	})
	return model
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// report prints the human-readable lines and the final JSON line, and
// returns the exit status.
func report(w *os.File, cfg config, env map[string]any, out *outcome) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problem("metric %s not measurable", d.name)
			v = 0
		}
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}

	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	if cfg.nproc < 2 {
		fmt.Fprintln(w, "note: one CPU; no number from this run is a parallel-scaling claim")
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	// Metrics outside BENCHMARK.json (fail_ratio, the tail's percentile
	// level) are printed but never put in the JSON line.
	var extra []string
	for name := range out.metrics {
		if !hasDef(defs, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-32s %14.6g\n", name, out.metrics[name])
	}

	correct := len(out.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d check(s) failed: %s\n", len(out.problems), strings.Join(out.problems, "; "))
		return 1
	}
	return 0
}

func hasDef(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
