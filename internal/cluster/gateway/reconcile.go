package gateway

import (
	"context"
	"fmt"

	"tempriv/internal/jobs"
)

// ejectHandoffCooldowns is how many eject cooldowns a worker must stay
// ejected before the reconcile loop hands its routes off.
const ejectHandoffCooldowns = 3

// Run drives the reconcile loop until ctx is canceled: expire leases,
// hand a dead worker's jobs to its ring successors, and refresh cached
// states so terminal jobs stop being reconsidered. Each sweep starts
// ReconcileEvery after the previous one ended.
func (g *Gateway) Run(ctx context.Context) {
	t := g.clock.NewTimer(g.reconcileEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C():
			g.ReconcileOnce(ctx)
			t.Reset(g.reconcileEvery)
		}
	}
}

// ReconcileOnce performs one sweep-and-repair pass. Exported so tests
// (and operators via signal handlers, if they wish) can drive the loop
// deterministically. It returns how many jobs were handed off.
func (g *Gateway) ReconcileOnce(ctx context.Context) int {
	// Expire leases first so the ring reflects reality. Sweep returns the
	// workers that just died; routes pointing at any non-live worker are
	// handoff candidates (this also catches workers that expired while
	// the gateway was not looking).
	expired := g.reg.Sweep()
	for _, w := range expired {
		if g.log != nil {
			g.log.Warn("worker lease expired", "worker", w.ID, "url", w.URL)
		}
	}
	_, alive, _ := g.currentRing()
	live := make(map[string]bool, len(alive))
	for _, w := range alive {
		live[w.ID] = true
	}

	g.refreshTerminalStates(ctx, live)

	// Every route stranded on a dead worker moves — including jobs that
	// had already finished there: their result bytes lived in the dead
	// worker's cache, and the successor answers them from the replica the
	// dead worker pushed it (or, failing that, from the shared chunks and
	// a byte-identical re-run). Only a canceled job stays dead; reviving
	// it would undo the user's cancel.
	//
	// A worker the health tracker has kept ejected past the grace window
	// is treated the same even while its lease survives: under an
	// asymmetric partition the worker's heartbeats still arrive (that leg
	// works) while the gateway's own requests all fail, so lease expiry
	// alone would strand its routes forever.
	handed := 0
	for _, rt := range g.snapshotRoutes() {
		g.mu.Lock()
		needsHome := rt.state != jobs.StateCanceled &&
			(!live[rt.WorkerID] || g.ejectedTooLong(rt.WorkerID))
		g.mu.Unlock()
		if !needsHome {
			continue
		}
		if g.handoff(ctx, rt) {
			handed++
		}
	}
	return handed
}

// ejectedTooLong reports whether a worker has been ejected (or failing
// its half-open probes) for at least the eject-handoff grace window.
func (g *Gateway) ejectedTooLong(workerID string) bool {
	since, down := g.health.ejectedSince(workerID)
	return down && g.clock.Now().Sub(since) >= ejectHandoffCooldowns*g.health.cooldown
}

// handoff re-dispatches an orphaned route to the ring's current owner for
// its fingerprint — the dead worker's ring successor, which holds the
// replica of any result the dead worker finished and replicated. That
// worker's runner answers from the replica (zero recompute) or resumes
// from the replicate chunks the dead worker persisted, recomputing only
// what is missing. Reports success.
func (g *Gateway) handoff(ctx context.Context, rt *route) bool {
	g.mu.Lock()
	from := rt.WorkerID
	spec, fp, traceID := rt.SpecJSON, rt.Fingerprint, rt.TraceID
	g.mu.Unlock()

	res, err := g.dispatch(ctx, spec, fp, traceID, jobs.OriginHandoff)
	if err != nil {
		g.mHandoffFail.Inc()
		if g.log != nil {
			g.log.Error("handoff failed", "job", rt.ID, "from", from, "err", err)
		}
		return false
	}
	g.mHandoffs.Inc()

	g.mu.Lock()
	rt.WorkerID = res.WorkerID
	rt.WorkerURL = res.WorkerURL
	rt.WorkerJobID = res.WorkerJobID
	rt.Handoffs++
	rt.state = jobs.StateQueued
	rt.notes = append(rt.notes, jobs.Event{
		Seq:     -1,
		State:   jobs.StateQueued,
		Stage:   "handoff",
		Message: fmt.Sprintf("worker %s lost its lease; re-dispatched to %s (attempt %d)", from, res.WorkerID, rt.Handoffs),
	})
	g.mu.Unlock()
	g.noteState(rt, res.Snapshot)

	if g.log != nil {
		g.log.Info("handed off job", "job", rt.ID, "from", from, "to", res.WorkerID, "worker_job", res.WorkerJobID)
	}
	return true
}

// refreshTerminalStates asks each live worker which of the gateway's
// non-terminal jobs have finished — one ?state=done,failed,canceled
// listing per worker — and caches the answers, so the routing table's
// view converges even when no client is polling (and a cancel observed
// here keeps that job from ever being revived by a handoff).
func (g *Gateway) refreshTerminalStates(ctx context.Context, live map[string]bool) {
	pending := make(map[string][]*route)
	for _, rt := range g.snapshotRoutes() {
		g.mu.Lock()
		interesting := live[rt.WorkerID] && !rt.state.Terminal()
		g.mu.Unlock()
		if interesting {
			pending[rt.WorkerID] = append(pending[rt.WorkerID], rt)
		}
	}
	for workerID, rts := range pending {
		snaps, err := g.fetchWorkerList(ctx, rts[0].WorkerURL, "done,failed,canceled")
		if err != nil {
			if g.log != nil {
				g.log.Warn("terminal-state refresh failed", "worker", workerID, "err", err)
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
			}
		}
	}
}
