// Package chaostransport is internal/faultfs for the network: an
// http.RoundTripper seam that injects partitions, added latency, and
// slow-loris (dripping) responses into gateway↔worker and worker↔worker
// calls, deterministically.
//
// Like faultfs, rules are explicit and countable: a Rule names the hosts
// it applies to (substring match on host:port), the failure mode, and how
// many matching requests pass untouched before it starts firing. Tests
// set rules programmatically; multi-process chaos (the chaos-cluster CI
// job) sets them via the TEMPRIV_CHAOS environment variable, which both
// temprivgw and temprivd consult at boot:
//
//	TEMPRIV_CHAOS="partition=127.0.0.1:7183;latency=127.0.0.1:7182:300ms;slow=127.0.0.1:7184:50ms"
//
// A partitioned host refuses every connection (the dial never happens —
// the transport synthesizes the error, so the fault is exact and
// instantaneous). A latency rule sleeps before forwarding. A slow rule
// forwards the request but drips the response body chunk by chunk with a
// delay between reads, the way a thin pipe or a wedged peer would. Both
// waits end early, with the context's error, when the request's context
// ends, as a real slow network would at the client's deadline.
package chaostransport

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tempriv/internal/clock"
)

// Mode is a failure mode a Rule injects.
type Mode string

const (
	// ModePartition fails every matching request with a connection error
	// before any bytes leave the process.
	ModePartition Mode = "partition"
	// ModeLatency sleeps Rule.Delay before forwarding the request.
	ModeLatency Mode = "latency"
	// ModeSlow forwards the request but drips the response body in
	// slowChunk-byte reads with Rule.Delay between them (slow-loris).
	ModeSlow Mode = "slow"
)

// slowChunk is how many bytes one read of a slow-loris body yields.
const slowChunk = 512

// Rule is one deterministic injection: requests whose URL host contains
// Match are subjected to Mode, starting with the After-th matching
// request (After=0 fires immediately; After=2 lets two through first).
type Rule struct {
	Match string
	Mode  Mode
	Delay time.Duration
	After int
}

func (r Rule) key() string { return string(r.Mode) + "=" + r.Match }

// Transport wraps an inner RoundTripper with rule-driven chaos. The zero
// value is not usable; call New.
type Transport struct {
	inner http.RoundTripper
	clock clock.Clock

	mu       sync.Mutex
	rules    []Rule
	seen     map[string]int // rule key -> matching requests observed
	injected map[string]int // rule key -> faults actually fired
}

// New wraps inner (http.DefaultTransport when nil) with no rules set.
func New(inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:    inner,
		clock:    clock.Real,
		seen:     make(map[string]int),
		injected: make(map[string]int),
	}
}

// SetClock replaces the clock injected delays wait on (tests step a
// manual clock instead of waiting them out). Not safe to call
// concurrently with RoundTrip.
func (t *Transport) SetClock(c clock.Clock) { t.clock = c }

// Set installs or replaces the rule for (Mode, Match).
func (t *Transport) Set(r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rules {
		if t.rules[i].key() == r.key() {
			t.rules[i] = r
			return
		}
	}
	t.rules = append(t.rules, r)
}

// Clear removes the rule for (mode, match); counters are retained.
func (t *Transport) Clear(match string, mode Mode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := Rule{Match: match, Mode: mode}.key()
	out := t.rules[:0]
	for _, r := range t.rules {
		if r.key() != key {
			out = append(out, r)
		}
	}
	t.rules = out
}

// ClearAll removes every rule; counters are retained.
func (t *Transport) ClearAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = nil
}

// Injected reports how many faults the (mode, match) rule has fired —
// the observability half of the seam, mirroring faultfs.Injected.
func (t *Transport) Injected(match string, mode Mode) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected[Rule{Match: match, Mode: mode}.key()]
}

// match finds the first armed rule for the host and advances counters.
func (t *Transport) match(host string) (Rule, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.rules {
		if !strings.Contains(host, r.Match) {
			continue
		}
		key := r.key()
		t.seen[key]++
		if t.seen[key] <= r.After {
			continue
		}
		t.injected[key]++
		return r, true
	}
	return Rule{}, false
}

// RoundTrip applies the first armed matching rule, then (except for
// partitions) forwards to the inner transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rule, ok := t.match(req.URL.Host)
	if !ok {
		return t.inner.RoundTrip(req)
	}
	switch rule.Mode {
	case ModePartition:
		return nil, fmt.Errorf("chaostransport: partition: %s is unreachable", req.URL.Host)
	case ModeLatency:
		if err := t.clock.Sleep(req.Context(), rule.Delay); err != nil {
			return nil, err
		}
		return t.inner.RoundTrip(req)
	case ModeSlow:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &slowBody{inner: resp.Body, ctx: req.Context(), delay: rule.Delay, clock: t.clock}
		return resp, nil
	default:
		return nil, fmt.Errorf("chaostransport: unknown mode %q", rule.Mode)
	}
}

// slowBody drips an upstream body slowChunk bytes per read with a sleep
// between reads. ctx is the request's: a read ends with its error once it
// is done.
type slowBody struct {
	inner   io.ReadCloser
	ctx     context.Context
	delay   time.Duration
	clock   clock.Clock
	started bool
}

func (b *slowBody) Read(p []byte) (int, error) {
	if b.started {
		if err := b.clock.Sleep(b.ctx, b.delay); err != nil {
			return 0, err
		}
	}
	b.started = true
	if len(p) > slowChunk {
		p = p[:slowChunk]
	}
	return b.inner.Read(p)
}

func (b *slowBody) Close() error { return b.inner.Close() }

// Parse turns a TEMPRIV_CHAOS-style spec into rules. The grammar is
// semicolon-separated clauses, each "mode=match[:delay][:afterN]":
//
//	partition=127.0.0.1:7183
//	latency=127.0.0.1:7182:300ms
//	slow=127.0.0.1:7184:50ms
//	partition=127.0.0.1:7183:after2   (two requests pass, then partition)
//
// Matching is substring on the request's host:port, so a bare port
// (":7183") or a bare host ("10.0.0.3") both work. Latency and slow
// require a delay. Empty spec parses to no rules.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		mode, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("chaostransport: clause %q: want mode=match[:delay][:afterN]", clause)
		}
		r := Rule{Mode: Mode(strings.TrimSpace(mode))}
		switch r.Mode {
		case ModePartition, ModeLatency, ModeSlow:
		default:
			return nil, fmt.Errorf("chaostransport: clause %q: unknown mode %q", clause, mode)
		}
		// The match may itself contain a colon (host:port), so options are
		// peeled off the right end only when they parse as an option.
		parts := strings.Split(rest, ":")
		for len(parts) > 1 {
			last := parts[len(parts)-1]
			if n, err := fmt.Sscanf(last, "after%d", &r.After); n == 1 && err == nil {
				parts = parts[:len(parts)-1]
				continue
			}
			if d, err := time.ParseDuration(last); err == nil {
				r.Delay = d
				parts = parts[:len(parts)-1]
				continue
			}
			break
		}
		r.Match = strings.Join(parts, ":")
		if r.Match == "" {
			return nil, fmt.Errorf("chaostransport: clause %q: empty match", clause)
		}
		if (r.Mode == ModeLatency || r.Mode == ModeSlow) && r.Delay <= 0 {
			return nil, fmt.Errorf("chaostransport: clause %q: %s requires a delay (e.g. %s=%s:100ms)", clause, r.Mode, r.Mode, r.Match)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// Wrap applies a parsed spec to inner: the unmodified inner transport
// when spec is empty, a rule-loaded Transport otherwise. This is the one
// call sites use at boot with os.Getenv("TEMPRIV_CHAOS").
func Wrap(inner http.RoundTripper, spec string) (http.RoundTripper, error) {
	rules, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return inner, nil
	}
	t := New(inner)
	for _, r := range rules {
		t.Set(r)
	}
	return t, nil
}
