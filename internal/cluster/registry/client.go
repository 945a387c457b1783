// Worker-side lease client: registers this worker with the bulletin
// board, heartbeats at a third of the granted lease TTL, and keeps
// retrying through registry outages — a worker must keep serving (and
// keep trying to rejoin) even when the gateway is down, because the
// registry holds no state the worker cannot re-create by re-registering.

package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"tempriv/internal/clock"
)

// retryBackoff is the wait after a failed registration or heartbeat.
const retryBackoff = time.Second

// ClientOptions configure a lease client.
type ClientOptions struct {
	// HTTPClient overrides the default client (2s timeout — heartbeats
	// must fail fast so a wedged registry never blocks worker shutdown).
	HTTPClient *http.Client
	// Interval overrides the heartbeat cadence (default: lease TTL / 3
	// as granted by the registry, re-read on every heartbeat).
	Interval time.Duration
	// Clock times the heartbeats and the retries (nil = clock.Real).
	Clock clock.Clock
	// OnMembers observes every successful response's membership list and
	// epoch. The worker wires this to its local ring rebuild (the
	// ownership check in internal/server).
	OnMembers func(workers []Worker, epoch uint64)
	// OnError observes failed registration/heartbeat attempts.
	OnError func(error)
	// OnHeartbeat observes successful registrations/heartbeats.
	OnHeartbeat func()
}

// Client keeps one worker registered with a remote bulletin board.
type Client struct {
	base string
	self Worker
	opts ClientOptions
	hc   *http.Client
}

// NewClient builds a lease client for the registry at base (the gateway
// base URL, e.g. "http://gw:7171"). self must carry ID, URL and Capacity.
func NewClient(base string, self Worker, opts ClientOptions) (*Client, error) {
	base = strings.TrimRight(base, "/")
	if base == "" {
		return nil, fmt.Errorf("registry client: empty registry URL")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("registry client: registry URL %q must be http(s)", base)
	}
	if !validWorkerID.MatchString(self.ID) {
		return nil, fmt.Errorf("registry client: invalid worker id %q", self.ID)
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Second}
	}
	return &Client{base: base, self: self, opts: opts, hc: hc}, nil
}

// register posts one registration/heartbeat and returns the granted TTL.
func (c *Client) register(ctx context.Context) (time.Duration, error) {
	payload, err := json.Marshal(c.self)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/cluster/register", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errStatus(resp)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, fmt.Errorf("registry client: decoding response: %w", err)
	}
	if c.opts.OnHeartbeat != nil {
		c.opts.OnHeartbeat()
	}
	if c.opts.OnMembers != nil {
		c.opts.OnMembers(rr.Workers, rr.Epoch)
	}
	return time.Duration(rr.TTLMillis) * time.Millisecond, nil
}

// Deregister removes this worker from the board (graceful shutdown).
// Best effort: the lease expires on its own if this never arrives.
func (c *Client) Deregister(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v1/cluster/workers/"+c.self.ID, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("registry client: deregister: HTTP %s", resp.Status)
	}
	return nil
}

// Run keeps the worker registered until ctx is canceled, then
// best-effort deregisters. Registration failures retry every retryBackoff
// forever — registry unavailability must degrade cluster routing, never
// worker serving.
func (c *Client) Run(ctx context.Context) {
	registered := false
	goodbye := func() {
		if !registered {
			return // never made it onto the board; nothing to remove
		}
		// ctx is dead; give the goodbye its own short deadline.
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = c.Deregister(dctx)
		cancel()
	}
	timer := c.opts.Clock.NewTimer(0) // the first registration goes at once
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			goodbye()
			return
		case <-timer.C():
		}
		ttl, err := c.register(ctx)
		var wait time.Duration
		if err != nil {
			if ctx.Err() != nil {
				// Canceled mid-request — but an earlier heartbeat may have
				// registered us, and that record must not linger for a full
				// lease after a graceful shutdown.
				goodbye()
				return
			}
			if c.opts.OnError != nil {
				c.opts.OnError(err)
			}
			wait = retryBackoff
		} else {
			registered = true
			wait = c.opts.Interval
			if wait <= 0 {
				wait = ttl / 3
			}
			if wait <= 0 {
				wait = time.Second
			}
		}
		timer.Reset(wait)
	}
}
