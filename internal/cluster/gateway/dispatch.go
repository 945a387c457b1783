package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tempriv/internal/cluster/registry"
	"tempriv/internal/jobs"
)

// dispatchResult is what a successful worker submission yields.
type dispatchResult struct {
	WorkerID    string
	WorkerURL   string
	WorkerJobID string
	Snapshot    map[string]any // the worker's snapshot, pre-rewrite
}

// workerError carries a worker's JSON error contract through to the
// caller so the gateway can forward the original status and message.
// RetryAfter, when set, becomes the response's Retry-After header — the
// gateway's load-shedding answer tells the client when capacity should
// free up rather than a blanket one-second hint.
type workerError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *workerError) Error() string {
	return fmt.Sprintf("worker returned %d: %s", e.Status, e.Msg)
}

// dispatch submits canonical spec bytes to the ring owner for fp, falling
// over to ring successors when a worker is unreachable, failing, or
// shedding load. Each candidate gets one POST, and at most submitAttempts
// candidates are tried. A 429/503 opens that worker's backpressure window
// for its Retry-After (capped at RetryAfterMax) and dispatch moves on to
// the next successor at once; connection errors and 5xx failures do the
// same, and count against the worker's health.
//
// Candidates the health tracker has ejected are skipped outright, as are
// workers inside an advertised Retry-After window or already carrying
// Capacity×ShedFactor outstanding routes. When that filtering leaves no
// candidate at all, the gateway sheds the submission itself — 503 plus a
// Retry-After derived from the nearest backpressure window — instead of
// burning attempts against workers it already knows are unavailable.
func (g *Gateway) dispatch(ctx context.Context, specJSON []byte, fp, traceID, origin string) (dispatchResult, error) {
	rg, alive, _ := g.currentRing()
	candidates := rg.Successors(fp, 0)
	if len(candidates) == 0 {
		return dispatchResult{}, &workerError{Status: http.StatusServiceUnavailable, Msg: "no live workers registered"}
	}

	var lastErr error
	tried := 0
	skipped := 0
	var shedWait time.Duration
	for _, id := range candidates {
		if tried == g.submitAttempts {
			break
		}
		worker, ok := workerByID(alive, id)
		if !ok {
			continue
		}
		if !g.health.allow(id) {
			skipped++
			continue
		}
		if remain, busy := g.health.backpressured(id); busy {
			skipped++
			if remain > shedWait {
				shedWait = remain
			}
			continue
		}
		if g.saturated(worker) {
			skipped++
			continue
		}
		if tried > 0 && g.mFailover != nil {
			g.mFailover.Inc()
		}
		tried++
		snap, retryAfter, err := g.postJob(ctx, worker.URL, specJSON, traceID, origin)
		if err == nil {
			g.health.observe(id, false)
			g.mDispatch.Inc()
			return dispatchResult{
				WorkerID:    id,
				WorkerURL:   worker.URL,
				WorkerJobID: stringField(snap, "id"),
				Snapshot:    snap,
			}, nil
		}
		lastErr = err
		var we *workerError
		if errors.As(err, &we) && (we.Status == http.StatusTooManyRequests || we.Status == http.StatusServiceUnavailable) {
			// Backpressure: the worker is alive and healthy, it just
			// asked for breathing room — never an ejection signal.
			g.health.observe(id, false)
			g.health.observeBackpressure(id, retryAfter)
			continue
		}
		if errors.As(err, &we) && we.Status >= 400 && we.Status < 500 {
			// The spec itself is bad; every worker will say the same.
			g.health.observe(id, false)
			return dispatchResult{}, err
		}
		// Unreachable or 5xx: a real failure.
		g.health.observe(id, true)
	}
	if tried == 0 && skipped > 0 {
		// Every live candidate is ejected, backpressured, or saturated:
		// shed at the gateway before spending a single worker round-trip.
		g.mSheds.Inc()
		if shedWait <= 0 {
			shedWait = time.Second
		}
		if shedWait > g.retryAfterMax {
			shedWait = g.retryAfterMax
		}
		return dispatchResult{}, &workerError{
			Status:     http.StatusServiceUnavailable,
			Msg:        fmt.Sprintf("all %d candidate workers are ejected, backpressured, or saturated", skipped),
			RetryAfter: shedWait,
		}
	}
	if lastErr == nil {
		lastErr = &workerError{Status: http.StatusServiceUnavailable, Msg: "no candidate worker accepted the job"}
	}
	return dispatchResult{}, lastErr
}

// saturated reports whether a worker already carries its fair share of
// in-flight routes: advertised capacity × ShedFactor. Workers that do not
// advertise capacity are never considered saturated.
func (g *Gateway) saturated(w registry.Worker) bool {
	if w.Capacity <= 0 {
		return false
	}
	limit := int(float64(w.Capacity) * g.shedFactor)
	if limit < 1 {
		limit = 1
	}
	return g.outstanding(w.ID) >= limit
}

// outstanding counts the non-terminal routes currently assigned to a
// worker — the gateway's own view of that worker's queue depth.
func (g *Gateway) outstanding(workerID string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, rt := range g.routes {
		if rt.WorkerID == workerID && !rt.state.Terminal() {
			n++
		}
	}
	return n
}

// postJob performs one POST /v1/jobs against a worker. On 429/503 it
// returns a *workerError plus the Retry-After the worker asked for
// (capped; defaulting to 1s when absent or unparsable).
func (g *Gateway) postJob(ctx context.Context, baseURL string, specJSON []byte, traceID, origin string) (map[string]any, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(specJSON))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	if origin != "" {
		req.Header.Set("X-Tempriv-Origin", origin)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("posting job to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var snap map[string]any
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&snap); derr != nil {
			return nil, 0, fmt.Errorf("decoding snapshot from %s: %w", baseURL, derr)
		}
		return snap, 0, nil
	}
	retryAfter := g.parseRetryAfter(resp.Header.Get("Retry-After"))
	return nil, retryAfter, decodeWorkerError(resp)
}

// parseRetryAfter interprets a Retry-After header as delay seconds,
// clamped to [1s, RetryAfterMax]: the length of the backpressure window
// it opens. HTTP-date forms and garbage fall back to 1s.
func (g *Gateway) parseRetryAfter(h string) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > g.retryAfterMax {
		d = g.retryAfterMax
	}
	return d
}

// decodeWorkerError lifts a worker's JSON error body into a *workerError,
// synthesizing a message when the body is not the expected contract.
func decodeWorkerError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	return &workerError{Status: resp.StatusCode, Msg: msg}
}

// stringField pulls a string out of a decoded JSON object ("" if absent).
func stringField(m map[string]any, key string) string {
	s, _ := m[key].(string)
	return s
}

// rewriteSnapshot presents a worker snapshot as a gateway job: the public
// ID replaces the worker's, and the placement becomes visible.
func rewriteSnapshot(snap map[string]any, rt *route) map[string]any {
	out := make(map[string]any, len(snap)+3)
	for k, v := range snap {
		out[k] = v
	}
	out["id"] = rt.ID
	out["worker"] = rt.WorkerID
	out["worker_job"] = rt.WorkerJobID
	if rt.Handoffs > 0 {
		out["handoffs"] = rt.Handoffs
	}
	return out
}

// routeState extracts the job state from a worker snapshot and caches it
// on the route so the reconcile loop can skip terminal jobs.
func (g *Gateway) noteState(rt *route, snap map[string]any) {
	if st := stringField(snap, "state"); st != "" {
		g.mu.Lock()
		rt.state = jobs.State(st)
		g.mu.Unlock()
	}
}
