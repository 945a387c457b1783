package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// hotRate is cluster-hot's offered load in jobs per second (see
// README.md for how it was chosen).
const hotRate = 40.0

// hotSpecs is K, the number of distinct specs cluster-hot draws from; the
// set-up caches all of them.
const hotSpecs = 32

// overheadPairs is how many gateway/direct round-trip pairs the traced
// cluster-hot run times after its phases, with no other load.
const overheadPairs = 40

// otherWorker names the worker that is not id.
func otherWorker(id string) string {
	if id == "w1" {
		return "w2"
	}
	return "w1"
}

// cluster is one gateway with its two workers.
type cluster struct {
	gw      *daemon
	workers []*daemon
	urls    map[string]string // worker ID → base URL
}

func (cl *cluster) daemons() []*daemon { return append([]*daemon{cl.gw}, cl.workers...) }

// runClusterHot drives temprivgw fronting two single-lane temprivd workers
// (own cache and journal each, one shared chunk directory, as in the
// README's cluster quickstart) with an open-loop Poisson stream drawn
// from K specs the set-up has already cached: every job is a cache hit,
// so the time goes to the serving layers' read paths.
func runClusterHot(cfg config, procs *procSet, runDir string, cal *calibrator) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	c := newClient()
	schedRand, pickRand := newRand(cfg.seed, 4), newRand(cfg.seed, 5)
	specs := newSpecDealer(newRand(cfg.seed, 3), cfg.seed<<20+1).deal(hotSpecs)
	bodies, err := specBodies(specs)
	if err != nil {
		return nil, err
	}
	// The references are checking work, not the system's set-up.
	digests, fps, err := verifySpecs(specs, cfg.nproc)
	if err != nil {
		return nil, err
	}
	want := func(idx []int) func(j *jobResult) (tableDigest, string) {
		return func(j *jobResult) (tableDigest, string) { return digests[idx[j.spec]], fps[idx[j.spec]] }
	}
	identity := make([]int, hotSpecs)
	for i := range identity {
		identity[i] = i
	}

	if err := startSpinner(procs, cfg.nproc, filepath.Join(runDir, "spinner.log")); err != nil {
		return nil, err
	}
	var setups []float64
	var cl *cluster
	owners := make([]string, hotSpecs) // spec → the worker the gateway placed it on in the fill
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if cl, err = startCluster(cfg, procs, c, filepath.Join(runDir, fmt.Sprintf("hot%d", i))); err != nil {
			return nil, err
		}
		// Fill: every spec once through the gateway, which caches it on its
		// owner, then once straight at the other worker, so a job the
		// gateway spills to the successor (owner saturated) is a hit too;
		// then wait until every result has replicated to its successor.
		var fill []jobResult
		for pass := 0; pass < 2; pass++ {
			batch := make([]jobResult, hotSpecs)
			var wg sync.WaitGroup
			sem := make(chan struct{}, 4)
			for k := range specs {
				base := cl.gw.url
				if pass == 1 {
					base = cl.urls[otherWorker(fill[k].worker)]
				}
				wg.Add(1)
				sem <- struct{}{}
				go func(k int, base string) {
					defer wg.Done()
					defer func() { <-sem }()
					batch[k] = runJob(c, base, bodies[k], time.Now())
					batch[k].spec = k
				}(k, base)
			}
			wg.Wait()
			if failed := checkJobs(batch, want(identity), false, fmt.Sprintf("fill %d.%d", i, pass), out); len(failed) > 0 {
				return out, nil
			}
			fill = append(fill, batch...)
		}
		for k := range specs {
			owners[k] = fill[k].worker
		}
		if err := waitFor("peer replication of the fill", 30*time.Second, func() bool {
			n := 0.0
			for _, w := range cl.workers {
				m, err := scrapeMetrics(c, w.url)
				if err != nil {
					return false
				}
				n += m["tempriv_cluster_peer_replicated_total"]
			}
			return n >= 2*hotSpecs
		}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			for _, d := range cl.daemons() {
				procs.stop(d)
			}
		}
	}
	out.note("load: open loop, Poisson at %.1f jobs/s for %v over K=%d cached specs; temprivgw + 2 temprivd -workers 1; goodput limit %v",
		hotRate, cfg.seconds, hotSpecs, cachedResultLimit)

	phase := func(traced bool) (*servePhase, []int, error) {
		offs := poissonSchedule(schedRand, hotRate, cfg.seconds)
		idx := make([]int, len(offs))
		bs := make([][]byte, len(offs))
		for i := range idx {
			idx[i] = pickRand.IntN(hotSpecs)
			bs[i] = bodies[idx[i]]
		}
		p, err := runPhase(c, cl.gw.url, cl.daemons(), bs, offs, cfg.seconds, traced, cal,
			func(j *jobResult) string { return cl.urls[j.worker] + "/v1/traces/" + j.workerJob },
			profileSeconds(cfg))
		return p, idx, err
	}
	plain, plainIdx, err := phase(false)
	if err != nil {
		return nil, err
	}
	plainFailed := checkPhase(plain, want(plainIdx), true, "untraced", out)
	roles := []string{"w1", "w2"}
	checkAllHits := func(p *servePhase, label string) {
		hits := p.delta("temprivd_cache_hits_total", roles...)
		misses := p.delta("temprivd_cache_misses_total", roles...)
		if misses > 0 || hits == 0 {
			out.problem("cluster-hot %s: cache hit ratio %v/%v below 1; run void", label, hits, hits+misses)
		}
	}
	checkAllHits(plain, "untraced")
	sut := []string{"gateway", "w1", "w2"}
	if !cfg.trace {
		e2eMetrics(plain, plainFailed, cachedResultLimit, sut, out)
		out.metrics["setup_s"] = median(setups)
		return out, nil
	}

	traced, tracedIdx, err := phase(true)
	if err != nil {
		return nil, err
	}
	checkPhase(traced, want(tracedIdx), true, "traced", out)
	checkAllHits(traced, "traced")
	servingLayers(plain, traced, roles, "gateway", cfg, out)
	overhead, err := gatewayOverhead(c, cl, bodies, owners, pickRand,
		func(k int) (tableDigest, string) { return digests[k], fps[k] }, out)
	if err != nil {
		return nil, err
	}
	out.metrics["gateway.overhead_ms"] = overhead
	return out, nil
}

// startCluster starts the gateway and two workers under dir and waits
// until every process is ready, both workers are registered, and each
// worker has heard the membership that includes the other (so results
// replicate to a ring successor).
func startCluster(cfg config, procs *procSet, c *http.Client, dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	gwAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cl := &cluster{urls: map[string]string{}}
	cl.gw, err = procs.start("gateway", filepath.Join(cfg.binDir, "temprivgw"), []string{"-addr", gwAddr},
		filepath.Join(dir, "gateway.log"), cfg.nproc, "http://"+gwAddr)
	if err != nil {
		return nil, err
	}
	if err := waitStatus(c, cl.gw.url+"/healthz", 30*time.Second); err != nil {
		return nil, err
	}
	for _, id := range []string{"w1", "w2"} {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		w, err := procs.start(id, filepath.Join(cfg.binDir, "temprivd"), []string{
			"-addr", addr, "-workers", "1",
			"-cache", filepath.Join(dir, "cache-"+id),
			"-journal", filepath.Join(dir, "journal-"+id),
			"-chunks", filepath.Join(dir, "chunks"),
			"-cluster-registry", cl.gw.url, "-cluster-id", id,
			// A short heartbeat spreads the membership within set-up
			// instead of a third of the 10 s lease later.
			"-cluster-heartbeat", "200ms",
		}, filepath.Join(dir, id+".log"), cfg.nproc, "http://"+addr)
		if err != nil {
			return nil, err
		}
		cl.workers = append(cl.workers, w)
		cl.urls[id] = w.url
	}
	for _, w := range cl.workers {
		if err := waitStatus(c, w.url+"/readyz", 30*time.Second); err != nil {
			return nil, err
		}
	}
	var epoch float64
	if err := waitFor("two registered workers", 30*time.Second, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		code, body, err := get(ctx, c, cl.gw.url+"/v1/cluster")
		var v struct {
			Epoch   float64           `json:"epoch"`
			Workers []json.RawMessage `json:"workers"`
		}
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &v) != nil {
			return false
		}
		epoch = v.Epoch
		return len(v.Workers) == 2
	}); err != nil {
		return nil, err
	}
	if err := waitStatus(c, cl.gw.url+"/readyz", 30*time.Second); err != nil {
		return nil, err
	}
	for _, w := range cl.workers {
		if err := waitFor(w.role+" membership", 30*time.Second, func() bool {
			m, err := scrapeMetrics(c, w.url)
			return err == nil && m["tempriv_cluster_epoch"] >= epoch
		}); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// gatewayOverhead times the same job through the gateway and straight at
// its owning worker, alternating which goes first, on a seeded sample of
// the cached specs, and returns the difference of the medians in ms.
func gatewayOverhead(c *http.Client, cl *cluster, bodies [][]byte, owners []string, pick *rand.Rand,
	want func(spec int) (tableDigest, string), out *outcome) (float64, error) {
	var viaGW, direct []float64
	var jobs []jobResult
	var idx []int
	for k := 0; k < overheadPairs; k++ {
		i := pick.IntN(len(bodies))
		bases := []string{cl.gw.url, cl.urls[owners[i]]}
		if k%2 == 1 {
			bases[0], bases[1] = bases[1], bases[0]
		}
		var gwMS, directMS float64
		ok := true
		for _, base := range bases {
			j := runJob(c, base, bodies[i], time.Now())
			j.spec = len(idx)
			idx = append(idx, i)
			jobs = append(jobs, j)
			ok = ok && j.err == ""
			if base == cl.gw.url {
				gwMS = float64(j.latency()) / 1e6
			} else {
				directMS = float64(j.latency()) / 1e6
			}
		}
		if ok {
			viaGW = append(viaGW, gwMS)
			direct = append(direct, directMS)
		}
	}
	checkJobs(jobs, func(j *jobResult) (tableDigest, string) { return want(idx[j.spec]) }, true, "gateway-overhead sample", out)
	if len(viaGW) == 0 {
		return 0, fmt.Errorf("gateway overhead: no successful pairs")
	}
	return median(viaGW) - median(direct), nil
}
