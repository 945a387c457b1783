package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tempriv/internal/obs"
	"tempriv/internal/scenario"
)

// Latency limits, anchored on temprivd's own SLO thresholds: a cached
// result within 50 ms, any request within 250 ms.
const (
	cachedResultLimit = 50 * time.Millisecond
	requestLimit      = 250 * time.Millisecond
)

// maxLagP99 voids a serving run whose load generator fell this far behind
// its schedule at the 99th percentile: the offered load was not the one
// the workload describes.
const maxLagP99 = 50 * time.Millisecond

// jobTimeout bounds one job's whole client round trip.
const jobTimeout = 30 * time.Second

// daemon is one started SUT process.
type daemon struct {
	role string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// procSet owns every process the benchmark starts, so each is stopped and
// waited for on every exit path.
type procSet struct {
	mu       sync.Mutex
	live     []*daemon
	maxprocs map[string]int
}

// start launches bin with args as role, logging to logPath. The process
// gets GOMAXPROCS = gomaxprocs explicitly, so the recorded value is the
// one it ran with.
func (s *procSet) start(role, bin string, args []string, logPath string, gomaxprocs int, url string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// Should the harness die without stopping it, the child dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	d := &daemon{role: role, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	s.mu.Lock()
	s.live = append(s.live, d)
	if s.maxprocs == nil {
		s.maxprocs = map[string]int{}
	}
	s.maxprocs[role] = gomaxprocs
	s.mu.Unlock()
	return d, nil
}

// stop asks d to shut down gracefully and waits; after 10 s it kills.
func (s *procSet) stop(d *daemon) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	s.mu.Lock()
	for i, x := range s.live {
		if x == d {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// stopAll stops every live process, in reverse start order.
func (s *procSet) stopAll() {
	s.mu.Lock()
	live := append([]*daemon(nil), s.live...)
	s.mu.Unlock()
	for i := len(live) - 1; i >= 0; i-- {
		s.stop(live[i])
	}
}

// gomaxprocs reports the GOMAXPROCS of the harness and of every role it
// started.
func (s *procSet) gomaxprocs(self int) map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{"perfbench": self}
	for k, v := range s.maxprocs {
		out[k] = v
	}
	return out
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// newClient returns the load generator's HTTP client: one keep-alive pool
// big enough that open-loop bursts reuse connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// get fetches url and returns the status and whole body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitFor polls cond every 5 ms until it holds or the timeout passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
	}
}

// waitStatus waits until GET url answers with a 2xx status.
func waitStatus(c *http.Client, url string, timeout time.Duration) error {
	return waitFor(url, timeout, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		code, _, err := get(ctx, c, url)
		return err == nil && code/100 == 2
	})
}

// scrapeMetrics reads a Prometheus text page, summing each metric name's
// samples over their label sets.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	code, body, err := get(ctx, c, base+"/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: status %d, %v", base, code, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			// Label values may hold spaces; the value follows the '}'.
			f = strings.Fields(line[strings.LastIndexByte(line, '}')+1:])
			if len(f) < 1 {
				continue
			}
			f = append([]string{name}, f...)
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// heapCounters reads a daemon's cumulative allocation counters from its
// expvar page.
func heapCounters(c *http.Client, base string) (mallocs, allocBytes float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	code, body, err := get(ctx, c, base+"/debug/vars")
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("reading %s/debug/vars: status %d, %v", base, code, err)
	}
	var v struct {
		Memstats struct{ Mallocs, TotalAlloc float64 } `json:"memstats"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, 0, err
	}
	return v.Memstats.Mallocs, v.Memstats.TotalAlloc, nil
}

// poissonSchedule returns the send offsets of an open-loop Poisson
// arrival process at rate per second over d, conditioned on its expected
// count: round(rate·d) arrival times drawn uniformly and sorted. Fixing
// the count keeps the offered load equal across seeds.
func poissonSchedule(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration(r.Float64() * float64(d))
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// splitSchedule cuts a sorted schedule over length into segs segments of
// equal length. Segment k holds the arrivals due in [k·L, (k+1)·L), L =
// length/segs, in order, as offsets from the segment's own start; the
// last also holds any arrival at or past length.
func splitSchedule(offs []time.Duration, segs int, length time.Duration) [][]time.Duration {
	segLen := length / time.Duration(segs)
	out := make([][]time.Duration, segs)
	for _, off := range offs {
		k := min(int(off/segLen), segs-1)
		out[k] = append(out[k], off-time.Duration(k)*segLen)
	}
	return out
}

// jobResult is one job's client-side record.
type jobResult struct {
	spec      int // index into the phase's spec list
	due, sent time.Time
	done      time.Time
	submitMS  float64
	resultMS  float64
	id        string
	worker    string // owning worker (gateway only)
	workerJob string // the job's ID on that worker (gateway only)
	attempts  int
	cacheHit  bool
	err       string // "" when the job completed and returned a result
	shed      bool
	fp        string
	digest    tableDigest
	trace     *obs.TraceTree
}

func (j *jobResult) latency() time.Duration { return j.done.Sub(j.due) }

// runJob submits one spec to base and follows it to a result: POST
// /v1/jobs, the job's /events stream until it closes at the terminal
// state, the final snapshot, then GET /result with its whole body.
func runJob(c *http.Client, base string, body []byte, due time.Time) jobResult {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	j := jobResult{due: due, sent: time.Now()}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		j.err = err.Error()
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		j.err = "submit: " + err.Error()
		return j
	}
	sub, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.submitMS = float64(time.Since(j.sent)) / 1e6
	switch {
	case err != nil:
		j.err = "submit: " + err.Error()
		return j
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		j.err, j.shed = fmt.Sprintf("submit shed with %d", resp.StatusCode), true
		return j
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Sprintf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(sub)))
		return j
	}
	var snap struct {
		ID        string `json:"id"`
		Worker    string `json:"worker"`
		WorkerJob string `json:"worker_job"`
	}
	if err := json.Unmarshal(sub, &snap); err != nil || snap.ID == "" {
		j.err = fmt.Sprintf("submit: undecodable snapshot %q", sub)
		return j
	}
	j.id, j.worker, j.workerJob = snap.ID, snap.Worker, snap.WorkerJob

	state, err := followEvents(ctx, c, base+"/v1/jobs/"+j.id+"/events")
	if err != nil {
		j.err = "events: " + err.Error()
		return j
	}
	if state != "done" {
		j.err = "job ended " + state
		return j
	}
	// The final snapshot carries the attempt count and the cache flag the
	// workloads check.
	code, body, err := get(ctx, c, base+"/v1/jobs/"+j.id)
	var fin struct {
		State    string `json:"state"`
		Attempts int    `json:"attempts"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &fin) != nil {
		j.err = fmt.Sprintf("snapshot: status %d, %v", code, err)
		return j
	}
	if fin.State != "done" {
		j.err = "snapshot state " + fin.State
		return j
	}
	j.attempts, j.cacheHit = fin.Attempts, fin.CacheHit

	resStart := time.Now()
	code, res, err := get(ctx, c, base+"/v1/jobs/"+j.id+"/result")
	j.done = time.Now()
	j.resultMS = float64(j.done.Sub(resStart)) / 1e6
	if err != nil || code != http.StatusOK {
		j.err = fmt.Sprintf("result: status %d, %v", code, err)
		return j
	}
	var doc struct {
		Fingerprint string `json:"fingerprint"`
		TableText   string `json:"table_text"`
		TableCSV    string `json:"table_csv"`
	}
	if err := json.Unmarshal(res, &doc); err != nil {
		j.err = "result: " + err.Error()
		return j
	}
	j.fp = doc.Fingerprint
	j.digest = tableDigest{sha256.Sum256([]byte(doc.TableText)), sha256.Sum256([]byte(doc.TableCSV))}
	return j
}

// followEvents reads a job's JSONL event stream until the server closes
// it at the job's terminal state, and returns the last state seen.
func followEvents(ctx context.Context, c *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var state string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.State != "" {
			state = ev.State // keepalive lines carry no state
		}
	}
	return state, sc.Err()
}

// fetchTrace reads a finished job's span tree. The queue closes the
// event stream just before it ends the root span, so a trace read right
// after the stream may still be open; it is re-read briefly.
func fetchTrace(c *http.Client, url string) (*obs.TraceTree, error) {
	for try := 0; ; try++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		code, body, err := get(ctx, c, url)
		cancel()
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d, %v", url, code, err)
		}
		var t obs.TraceTree
		if err := json.Unmarshal(body, &t); err != nil {
			return nil, fmt.Errorf("trace %s: %w", url, err)
		}
		if t.Complete || try == 50 {
			return &t, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// openLoop fires job i at start+offs[i] on its own goroutine, whatever
// the state of earlier jobs, waits for all of them, and returns start.
func openLoop(offs []time.Duration, fire func(i int, due time.Time)) time.Time {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	return start
}

// fetchProfiles collects a CPU profile of secs seconds from every base
// URL's /debug/pprof endpoint concurrently and merges their stacks.
func fetchProfiles(c *http.Client, bases []string, secs int) ([]profileStack, error) {
	var (
		mu     sync.Mutex
		stacks []profileStack
		errs   []error
		wg     sync.WaitGroup
	)
	for _, b := range bases {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(secs+30)*time.Second)
			defer cancel()
			code, body, err := get(ctx, c, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", b, secs))
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			var s []profileStack
			if err == nil {
				s, err = decodeProfile(body)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("profile of %s: %w", b, err))
				return
			}
			stacks = append(stacks, s...)
		}(b)
	}
	wg.Wait()
	return stacks, errors.Join(errs...)
}

// verifySpecs runs each distinct spec in-process at ReplicateWorkers = 1
// and returns its digest and fingerprint, using nproc goroutines.
func verifySpecs(specs []scenario.Spec, nproc int) ([]tableDigest, []string, error) {
	digests := make([]tableDigest, len(specs))
	fps := make([]string, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o, err := scenario.Run(context.Background(), specs[i], scenario.Options{ReplicateWorkers: 1})
				if err != nil {
					errs[i] = fmt.Errorf("reference run of spec %d: %w", i, err)
					continue
				}
				digests[i] = digestOf(o)
				fps[i] = o.Manifest.SpecFingerprint
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return digests, fps, errors.Join(errs...)
}

// phaseSegments is how many parts an untraced phase's schedule is cut
// into. Between parts the load pauses, the jobs in flight finish, and the
// calibrator measures the machine's speed, so the run's speed is sampled
// all through the phase without a calibration slice ever competing with
// the program under test.
const phaseSegments = 10

// runPhase drives one open-loop phase of the given length: bodies[i] is
// submitted to base at offs[i]. Every daemon in ds is snapshotted before
// and after. An untraced phase runs in phaseSegments parts with cal
// measuring before, between and after them. A traced phase runs in one
// part, so no calibration slice lands in its profiles, and also fetches
// each job's span tree from traceURL and CPU profiles of every temprivd
// over the first profileSecs seconds.
func runPhase(c *http.Client, base string, ds []*daemon, bodies [][]byte, offs []time.Duration, length time.Duration,
	traced bool, cal *calibrator, traceURL func(j *jobResult) string, profileSecs int) (*servePhase, error) {
	p := &servePhase{jobs: make([]jobResult, len(bodies)), procs: newProcGroup()}
	steal := newStealMeter()
	var err error
	if p.before, p.heap0, err = snapshot(c, ds, p.procs); err != nil {
		return nil, err
	}
	var profDone chan error
	if traced && profileSecs > 0 {
		var bases []string
		for _, d := range ds {
			if d.role != "gateway" { // temprivgw serves no /debug/pprof
				bases = append(bases, d.url)
			}
		}
		profDone = make(chan error, 1)
		go func() {
			var err error
			p.profile, err = fetchProfiles(c, bases, profileSecs)
			profDone <- err
		}()
	}
	fire := func(i int, due time.Time) {
		j := runJob(c, base, bodies[i], due)
		j.spec = i
		if traced && j.err == "" {
			if t, err := fetchTrace(c, traceURL(&j)); err != nil {
				j.err = err.Error()
			} else {
				j.trace = t
			}
		}
		p.jobs[i] = j
	}
	segs := phaseSegments
	if traced {
		segs = 1
	}
	segLen := length / time.Duration(segs)
	lo := 0
	for _, segOffs := range splitSchedule(offs, segs, length) {
		if !traced {
			if err := cal.measure(calSlices, 0); err != nil {
				return nil, err
			}
		}
		first, hi := lo, lo+len(segOffs)
		start := openLoop(segOffs, func(i int, due time.Time) { fire(first+i, due) })
		last := start
		for _, j := range p.jobs[lo:hi] {
			if j.done.After(last) {
				last = j.done
			}
		}
		p.window += max(last.Sub(start), segLen)
		lo = hi
	}
	if !traced {
		if err := cal.measure(calSlices, 0); err != nil {
			return nil, err
		}
	}
	p.steal = steal.share()
	if p.after, p.heap1, err = snapshot(c, ds, p.procs); err != nil {
		return nil, err
	}
	if profDone != nil {
		if err := <-profDone; err != nil {
			return nil, err
		}
	}
	return p, nil
}

// servePhase is one timed open-loop phase against a serving target.
type servePhase struct {
	jobs    []jobResult
	window  time.Duration // per segment, schedule start to the later of its end and the last completion, summed
	steal   float64       // share of machine CPU time stolen by the hypervisor
	procs   *procGroup
	before  map[string]map[string]float64 // role → /metrics at the start
	after   map[string]map[string]float64
	heap0   map[string][2]float64 // role → expvar (mallocs, bytes) at the start
	heap1   map[string][2]float64
	profile []profileStack
}

// delta is a /metrics counter's growth over the phase, summed over roles.
func (p *servePhase) delta(name string, roles ...string) float64 {
	var d float64
	for _, r := range roles {
		d += p.after[r][name] - p.before[r][name]
	}
	return d
}

// heapDelta is the growth of (mallocs, allocated bytes) over the phase,
// summed over roles.
func (p *servePhase) heapDelta(roles ...string) (mallocs, allocBytes float64) {
	for _, r := range roles {
		mallocs += p.heap1[r][0] - p.heap0[r][0]
		allocBytes += p.heap1[r][1] - p.heap0[r][1]
	}
	return mallocs, allocBytes
}

// completed returns the jobs that produced a result.
func (p *servePhase) completed() []jobResult {
	var ok []jobResult
	for _, j := range p.jobs {
		if j.err == "" {
			ok = append(ok, j)
		}
	}
	return ok
}

// lagP99 is the load generator's 99th-percentile lateness in ms.
func (p *servePhase) lagP99() float64 {
	lags := make([]float64, 0, len(p.jobs))
	for _, j := range p.jobs {
		lags = append(lags, float64(j.sent.Sub(j.due))/1e6)
	}
	return percentile(lags, 99)
}

// snapshot reads every role's /metrics, expvar heap counters and /proc
// counters.
func snapshot(c *http.Client, ds []*daemon, pg *procGroup) (map[string]map[string]float64, map[string][2]float64, error) {
	mets := map[string]map[string]float64{}
	heap := map[string][2]float64{}
	pids := map[string]int{}
	for _, d := range ds {
		m, err := scrapeMetrics(c, d.url)
		if err != nil {
			return nil, nil, err
		}
		mets[d.role] = m
		if d.role != "gateway" { // temprivgw serves no /debug/vars
			mallocs, allocBytes, err := heapCounters(c, d.url)
			if err != nil {
				return nil, nil, err
			}
			heap[d.role] = [2]float64{mallocs, allocBytes}
		}
		pids[d.role] = d.cmd.Process.Pid
	}
	return mets, heap, pg.observe(pids)
}

// e2eMetrics computes the end-to-end metrics of a serving phase for jobs
// whose outputs have been checked (failed marks the ones that did not
// match). limit is the goodput latency limit; sut names the roles whose
// CPU and memory count.
func e2eMetrics(p *servePhase, failed map[int]bool, limit time.Duration, sut []string, out *outcome) {
	m := out.metrics
	var lat []float64
	good := 0
	for i, j := range p.jobs {
		if j.err != "" || failed[i] {
			continue
		}
		lat = append(lat, float64(j.latency())/1e6)
		if j.latency() <= limit {
			good++
		}
	}
	secs := p.window.Seconds()
	m["throughput_per_s"] = float64(len(lat)) / secs
	m["goodput_per_s"] = float64(good) / secs
	m["latency_p50_ms"] = median(lat)
	pct, beyond, ok := tailPercentile(len(lat))
	m["latency_tail_ms"] = percentile(append([]float64(nil), lat...), pct)
	m["latency_tail_pct"] = pct
	m["cpu_ms_per_op"] = p.procs.cpuMS(sut...) / float64(len(lat))
	m["rss_peak_mb"] = p.procs.peakMiB(sut...)
	m["fail_ratio"] = float64(len(p.jobs)-len(lat)) / float64(len(p.jobs))
	m["loadgen.lag_p99_ms"] = p.lagP99()
	m["machine.steal_share"] = p.steal
	out.note("latency: n=%d, tail p%v with %d beyond (enough samples: %v); goodput limit %v; window %.3fs",
		len(lat), pct, beyond, ok, limit, secs)
}

// checkJobs applies the output checks to jobs: each must have completed,
// its result must match want, the in-process run of its spec, and its
// snapshot's cache flag must be wantHit. A shed submission is a failed
// operation but not a wrong answer; every other failure is recorded as a
// problem (the first five in full). It returns the indexes of the failed
// jobs.
func checkJobs(jobs []jobResult, want func(j *jobResult) (tableDigest, string), wantHit bool, label string, out *outcome) map[int]bool {
	failed := map[int]bool{}
	wrong, sheds := 0, 0
	for i := range jobs {
		j := &jobs[i]
		why := j.err
		if why == "" {
			if d, fp := want(j); j.digest != d || j.fp != fp {
				why = "result differs from the in-process run of its spec"
			} else if j.cacheHit != wantHit {
				why = fmt.Sprintf("snapshot says cache_hit=%v", j.cacheHit)
			}
		}
		if why == "" {
			continue
		}
		failed[i] = true
		if j.shed {
			sheds++
			continue
		}
		if wrong++; wrong <= 5 {
			out.problem("%s job %d (%s): %s", label, i, j.id, why)
		}
	}
	if wrong > 5 {
		out.problem("%s: %d of %d jobs failed their checks", label, wrong, len(jobs))
	}
	if sheds > 0 {
		out.note("%s: %d of %d submissions shed (429/503)", label, sheds, len(jobs))
	}
	return failed
}

// checkPhase checks a timed phase: its jobs' outputs, counted as
// operations, and the load generator's lateness.
func checkPhase(p *servePhase, want func(j *jobResult) (tableDigest, string), wantHit bool, label string, out *outcome) map[int]bool {
	failed := checkJobs(p.jobs, want, wantHit, label, out)
	out.attempted += len(p.jobs)
	out.failed += len(failed)
	if lag := p.lagP99(); lag > float64(maxLagP99)/1e6 {
		out.problem("%s: load generator lag p99 %.2f ms exceeds %v; run void", label, lag, maxLagP99)
	}
	return failed
}

// profileSeconds is how long a traced phase profiles the daemons: the
// schedule's whole seconds, at least one.
func profileSeconds(cfg config) int {
	if s := int(cfg.seconds / time.Second); s > 1 {
		return s
	}
	return 1
}

// servingLayers fills the per-layer metrics of a serving workload:
// counters from the untraced phase (plain), spans and profiles from the
// traced one. servers are the temprivd roles; gateway is the gateway's
// role or "".
func servingLayers(plain, traced *servePhase, servers []string, gateway string, cfg config, out *outcome) {
	m := out.metrics
	done := plain.completed()
	ok := float64(len(done))
	sut := servers
	if gateway != "" {
		sut = append(append([]string(nil), servers...), gateway)
	}

	var submit, result, attempts []float64
	for _, j := range done {
		submit = append(submit, j.submitMS)
		result = append(result, j.resultMS)
		attempts = append(attempts, float64(j.attempts))
	}
	m["server.submit_ms"] = median(submit)
	m["server.result_ms"] = median(result)
	m["jobs.attempts_per_op"] = mean(attempts)
	m["server.cpu_ms_per_op"] = plain.procs.cpuMS(servers...) / ok
	m["server.write_syscalls_per_op"] = float64(sumTracks(plain.procs.syscw, servers)) / ok
	m["server.write_bytes_per_op"] = float64(sumTracks(plain.procs.wchar, servers)) / ok
	m["experiment.parallel_efficiency"] = plain.procs.cpuMS(sut...) / (plain.window.Seconds() * 1000 * float64(cfg.nproc))
	mallocs, allocBytes := plain.heapDelta(servers...)
	m["experiment.allocs_per_op"] = mallocs / ok
	m["experiment.alloc_bytes_per_op"] = allocBytes / ok
	hits := plain.delta("temprivd_cache_hits_total", servers...)
	misses := plain.delta("temprivd_cache_misses_total", servers...)
	m["resultcache.hit_ratio"] = hits / (hits + misses)
	if gateway != "" {
		m["gateway.cpu_ms_per_op"] = plain.procs.cpuMS(gateway) / ok
		m["gateway.dispatches_per_op"] = plain.delta("tempriv_cluster_dispatch_total", gateway) / ok
		m["gateway.hedged_reads_per_op"] = plain.delta("tempriv_cluster_hedged_reads_total", gateway) / ok
		// A worker counts a job it does not own as misdirected: the
		// gateway placed it on the ring successor because the owner was
		// saturated or ejected.
		m["gateway.spills_per_op"] = plain.delta("tempriv_cluster_misdirected_total", servers...) / ok
		m["gateway.failovers"] = plain.delta("tempriv_cluster_dispatch_failover_total", gateway)
		m["gateway.sheds"] = plain.delta("tempriv_sheds_total", gateway)
		m["peering.replicated_per_op"] = plain.delta("tempriv_cluster_peer_replicated_total", servers...) / ok
	}

	var spans spanStats
	for _, j := range traced.jobs {
		spans.add(j.trace)
	}
	spans.putLayers(m)
	for b, v := range cpuShares(traced.profile) {
		m[b+".cpu_share"] = v
	}
	m["loadgen.lag_p99_ms"] = max(plain.lagP99(), traced.lagP99())
	var plainLat, tracedLat []float64
	for _, j := range done {
		plainLat = append(plainLat, float64(j.latency())/1e6)
	}
	for _, j := range traced.completed() {
		tracedLat = append(tracedLat, float64(j.latency())/1e6)
	}
	m["trace.overhead"] = median(tracedLat) / median(plainLat)
	out.note("per-layer: counters from the untraced phase (%d jobs), spans from %d traces, profile of %d samples",
		len(done), spans.traces, len(traced.profile))
}
