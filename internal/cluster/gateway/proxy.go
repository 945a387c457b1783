package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tempriv/internal/jobs"
	"tempriv/internal/obs"
	"tempriv/internal/scenario"
)

// maxSpecBytes bounds a submitted scenario document, matching the worker
// API's own cap.
const maxSpecBytes = 1 << 20

// handleSubmit validates the spec at the edge (a malformed document never
// costs a worker round-trip), places it on the ring by fingerprint, and
// returns the worker's snapshot rewritten under a gateway job ID.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	_, root := g.tracer.StartTrace(r.Context(), r.Header.Get("X-Trace-Id"), "gateway.job")
	traceID := root.TraceID()
	if traceID == "" && obs.ValidTraceID(r.Header.Get("X-Trace-Id")) {
		// No gateway tracer, but the client's ID is sane: still thread it
		// through so the worker adopts it.
		traceID = r.Header.Get("X-Trace-Id")
	}
	if traceID != "" {
		w.Header().Set("X-Trace-Id", traceID)
	}
	defer root.End()

	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("scenario document exceeds %d bytes", maxSpecBytes))
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		root.EndErr(err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	canon, err := spec.CanonicalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	root.Annotate("fingerprint", fp)

	res, err := g.dispatch(r.Context(), canon, fp, traceID, "")
	if err != nil {
		root.EndErr(err)
		writeWorkerError(w, err)
		return
	}
	root.Annotate("worker", res.WorkerID)

	g.mu.Lock()
	id := g.mintID()
	g.mu.Unlock()
	rt := &route{
		ID:          id,
		WorkerID:    res.WorkerID,
		WorkerURL:   res.WorkerURL,
		WorkerJobID: res.WorkerJobID,
		Fingerprint: fp,
		SpecJSON:    canon,
		TraceID:     traceID,
		state:       jobs.StateQueued,
	}
	g.insertRoute(rt)
	g.noteState(rt, res.Snapshot)
	root.BindJob(id)
	if g.log != nil {
		g.log.Info("dispatched job", "job", id, "worker", res.WorkerID, "worker_job", res.WorkerJobID, "fingerprint", fp)
	}
	writeJSON(w, http.StatusAccepted, rewriteSnapshot(res.Snapshot, rt))
}

// proxyJSON performs a worker request for a route and forwards the JSON
// response with the snapshot rewritten when it carries the worker job ID.
func (g *Gateway) proxyJSON(w http.ResponseWriter, r *http.Request, rt *route, method, path string) {
	req, err := http.NewRequestWithContext(r.Context(), method, rt.WorkerURL+path, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if rt.TraceID != "" {
		req.Header.Set("X-Trace-Id", rt.TraceID)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("worker %s unreachable: %w", rt.WorkerID, err))
		return
	}
	defer resp.Body.Close()
	var snap map[string]any
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&snap); derr != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("decoding worker %s response: %w", rt.WorkerID, derr))
		return
	}
	if resp.StatusCode >= 400 {
		// Forward the worker's error contract under the gateway's framing.
		writeJSON(w, resp.StatusCode, snap)
		return
	}
	g.noteState(rt, snap)
	writeJSON(w, resp.StatusCode, rewriteSnapshot(snap, rt))
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	rt, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	g.proxyJSON(w, r, rt, http.MethodGet, "/v1/jobs/"+rt.WorkerJobID)
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	rt, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	g.proxyJSON(w, r, rt, http.MethodDelete, "/v1/jobs/"+rt.WorkerJobID)
}

// handleResult streams the worker's result body — full JSON or the
// ?partial=1 JSONL replicate stream — byte-for-byte. Result documents are
// content-addressed by fingerprint and carry no job ID, so no rewriting
// is needed; status, Content-Type and Retry-After pass through.
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	rt, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	path := "/v1/jobs/" + rt.WorkerJobID + "/result"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	g.proxyStream(w, r, rt, path)
}

const (
	// eventKeepalive is how often the /events proxy writes a keepalive
	// line while it waits out a worker failover; failoverWait bounds that
	// wait.
	eventKeepalive = 5 * time.Second
	failoverWait   = 60 * time.Second
)

// handleEvents streams the worker's JSONL event feed, prefixed with any
// synthetic handoff notes (seq -1) this job accumulated — so a watcher
// that attached through the gateway sees the crash and the re-dispatch
// inline, then the successor's own history from its beginning.
//
// The stream survives worker failover: when the feed breaks while the
// job is still non-terminal, the gateway holds the client connection
// open, emitting {"keepalive":true} lines every eventKeepalive (the same
// shape the worker's own idle stream uses), until the reconcile loop
// rehomes the route — then reconnects to the successor and resumes with
// its history. The wait is bounded by failoverWait.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	rt, ok := g.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emitted := 0 // synthetic notes already written
	emitNotes := func() bool {
		g.mu.Lock()
		notes := make([]jobs.Event, len(rt.notes[emitted:]))
		copy(notes, rt.notes[emitted:])
		g.mu.Unlock()
		for _, ev := range notes {
			if err := enc.Encode(ev); err != nil {
				return false
			}
			emitted++
		}
		if len(notes) > 0 && flusher != nil {
			flusher.Flush()
		}
		return true
	}

	var deadline time.Time // failover budget; persists across reconnects
	for {
		if !emitNotes() {
			return
		}
		g.mu.Lock()
		workerURL, workerJobID := rt.WorkerURL, rt.WorkerJobID
		gen := rt.Handoffs
		traceID := rt.TraceID
		g.mu.Unlock()

		last, err := g.streamWorkerEvents(r.Context(), w, flusher, workerURL, workerJobID, traceID)
		if err == nil && last.Terminal() {
			// Record what the stream delivered, so a client that follows
			// /events instead of polling status frees the worker's share
			// of outstanding() — unless a handoff moved the route meanwhile.
			g.mu.Lock()
			if rt.Handoffs == gen {
				rt.state = last
			}
			g.mu.Unlock()
			emitNotes()
			return
		}
		if r.Context().Err() != nil {
			return
		}

		// The feed broke (worker died or partitioned) before delivering a
		// terminal event. Keep the client warm while the reconcile loop
		// finds the route a new home; the budget spans reconnect attempts
		// so a stream that keeps breaking cannot hold the client forever.
		if deadline.IsZero() {
			deadline = g.clock.Now().Add(failoverWait)
		}
		for {
			if g.clock.Sleep(r.Context(), eventKeepalive) != nil {
				return
			}
			if _, werr := io.WriteString(w, "{\"keepalive\":true}\n"); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if g.clock.Now().After(deadline) {
				return
			}
			g.mu.Lock()
			moved := rt.Handoffs != gen
			terminal := rt.state.Terminal()
			g.mu.Unlock()
			if moved {
				// Fresh home, fresh budget for any future failure.
				deadline = time.Time{}
				break
			}
			if terminal {
				// The route says the job finished but the stream never
				// showed it: reconnect and replay to the real end.
				break
			}
		}
	}
}

// streamWorkerEvents connects to one worker's event feed and forwards
// its lines as they arrive, tracking the last job state seen so the
// caller can tell a cleanly finished stream from a broken one. Returns
// the last state observed and the reason the stream ended (nil when the
// worker closed it normally).
func (g *Gateway) streamWorkerEvents(ctx context.Context, w io.Writer, flusher http.Flusher, baseURL, jobID, traceID string) (jobs.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return "", err
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		return "", fmt.Errorf("worker events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last jobs.State
	for sc.Scan() {
		line := sc.Bytes()
		if _, werr := w.Write(append(line, '\n')); werr != nil {
			return last, werr
		}
		if flusher != nil {
			flusher.Flush()
		}
		var ev struct {
			State jobs.State `json:"state"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.State != "" {
			last = ev.State
		}
	}
	return last, sc.Err()
}

// proxyStream forwards a streaming worker response. Headers and status
// land first, then the worker's bytes as they arrive (flushed per read so
// live JSONL stays live).
func (g *Gateway) proxyStream(w http.ResponseWriter, r *http.Request, rt *route, path string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.WorkerURL+path, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if rt.TraceID != "" {
		req.Header.Set("X-Trace-Id", rt.TraceID)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("worker %s unreachable: %w", rt.WorkerID, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// handleList merges every worker's view of the gateway's jobs into one
// listing, pushing the ?state= filter down to the workers so a terminal
// sweep costs one request per worker rather than one per job.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	stateQ := r.URL.Query().Get("state")
	if stateQ != "" {
		for _, part := range strings.Split(stateQ, ",") {
			switch jobs.State(strings.TrimSpace(part)) {
			case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			default:
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q (valid: queued, running, done, failed, canceled)", part))
				return
			}
		}
	}

	routes := g.snapshotRoutes()
	byWorker := make(map[string][]*route)
	for _, rt := range routes {
		byWorker[rt.WorkerID] = append(byWorker[rt.WorkerID], rt)
	}

	// One listing request per worker; each worker's snapshots are keyed
	// back to gateway routes by worker job ID.
	merged := make(map[string]map[string]any) // gateway job ID -> snapshot
	for workerID, rts := range byWorker {
		snaps, err := g.fetchWorkerList(r.Context(), rts[0].WorkerURL, stateQ)
		if err != nil {
			if g.log != nil {
				g.log.Warn("listing worker failed", "worker", workerID, "err", err)
			}
			continue
		}
		byWorkerJob := make(map[string]map[string]any, len(snaps))
		for _, snap := range snaps {
			byWorkerJob[stringField(snap, "id")] = snap
		}
		for _, rt := range rts {
			if snap, ok := byWorkerJob[rt.WorkerJobID]; ok {
				g.noteState(rt, snap)
				merged[rt.ID] = rewriteSnapshot(snap, rt)
			}
		}
	}

	out := make([]map[string]any, 0, len(merged))
	for _, rt := range routes {
		if snap, ok := merged[rt.ID]; ok {
			out = append(out, snap)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// fetchWorkerList retrieves a worker's job listing, optionally filtered
// by a ?state= expression the worker evaluates itself.
func (g *Gateway) fetchWorkerList(ctx context.Context, baseURL, stateQ string) ([]map[string]any, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	u := baseURL + "/v1/jobs"
	if stateQ != "" {
		u += "?state=" + url.QueryEscape(stateQ)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeWorkerError(resp)
	}
	var body struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Jobs, nil
}

// writeWorkerError renders a dispatch error, preserving the worker's own
// status code when one came back and any shed Retry-After hint.
func writeWorkerError(w http.ResponseWriter, err error) {
	var we *workerError
	if errors.As(err, &we) {
		if we.RetryAfter > 0 {
			secs := int(we.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeError(w, we.Status, errors.New(we.Msg))
		return
	}
	writeError(w, http.StatusBadGateway, err)
}

// writeJSON / writeError mirror the worker API's uniform JSON contract.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{"error": err.Error(), "status": status})
}
