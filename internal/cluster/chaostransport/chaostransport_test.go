package chaostransport

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tempriv/internal/clock"
)

func get(t *testing.T, client *http.Client, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		t.Fatalf("reading body: %v", rerr)
	}
	return resp, string(body), nil
}

func TestPartitionRefusesMatchingHost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "other")
	}))
	defer other.Close()

	tr := New(nil)
	host := strings.TrimPrefix(srv.URL, "http://")
	tr.Set(Rule{Match: host, Mode: ModePartition})
	client := &http.Client{Transport: tr}

	if _, _, err := get(t, client, srv.URL); err == nil {
		t.Fatal("partitioned host answered")
	} else if !strings.Contains(err.Error(), "partition") {
		t.Fatalf("error does not name the partition: %v", err)
	}
	if _, body, err := get(t, client, other.URL); err != nil || body != "other" {
		t.Fatalf("non-matching host affected: body=%q err=%v", body, err)
	}
	if n := tr.Injected(host, ModePartition); n != 1 {
		t.Fatalf("Injected = %d, want 1", n)
	}
}

func TestAfterLetsRequestsThroughFirst(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	tr := New(nil)
	host := strings.TrimPrefix(srv.URL, "http://")
	tr.Set(Rule{Match: host, Mode: ModePartition, After: 2})
	client := &http.Client{Transport: tr}

	for i := 0; i < 2; i++ {
		if _, _, err := get(t, client, srv.URL); err != nil {
			t.Fatalf("request %d should pass: %v", i+1, err)
		}
	}
	if _, _, err := get(t, client, srv.URL); err == nil {
		t.Fatal("third request should hit the partition")
	}
	if n := tr.Injected(host, ModePartition); n != 1 {
		t.Fatalf("Injected = %d, want 1", n)
	}
}

func newManualClock() *clock.Manual { return clock.NewManual(time.Unix(1_700_000_000, 0)) }

func TestLatencySleepsBeforeForwarding(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	clk := newManualClock()
	tr := New(nil)
	tr.SetClock(clk)
	host := strings.TrimPrefix(srv.URL, "http://")
	tr.Set(Rule{Match: host, Mode: ModeLatency, Delay: 250 * time.Millisecond})
	client := &http.Client{Transport: tr}

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := client.Get(srv.URL)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{string(body), err}
	}()

	clk.BlockUntil(1)
	clk.Advance(250*time.Millisecond - time.Nanosecond)
	clk.BlockUntil(1) // the latency wait is still armed 1ns before its end
	clk.Advance(time.Nanosecond)
	if r := <-done; r.err != nil || r.body != "ok" {
		t.Fatalf("latency rule broke the request: body=%q err=%v", r.body, r.err)
	}
}

func TestSlowDripsBodyInChunks(t *testing.T) {
	payload := strings.Repeat("x", 3*slowChunk)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, payload)
	}))
	defer srv.Close()
	clk := newManualClock()
	tr := New(nil)
	tr.SetClock(clk)
	host := strings.TrimPrefix(srv.URL, "http://")
	tr.Set(Rule{Match: host, Mode: ModeSlow, Delay: 50 * time.Millisecond})
	client := &http.Client{Transport: tr}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("slow rule broke the request: %v", err)
	}
	defer resp.Body.Close()

	// The first chunk comes at once; every later read waits one delay on
	// the clock first, the read that finds the end included.
	var body []byte
	buf := make([]byte, 4*slowChunk)
	for read := 0; ; read++ {
		type chunk struct {
			n   int
			err error
		}
		got := make(chan chunk, 1)
		go func() {
			n, err := resp.Body.Read(buf)
			got <- chunk{n, err}
		}()
		if read > 0 {
			clk.BlockUntil(1)
			clk.Advance(50 * time.Millisecond)
		}
		c := <-got
		if c.n > slowChunk {
			t.Fatalf("read %d returned %d bytes, want at most %d", read, c.n, slowChunk)
		}
		body = append(body, buf[:c.n]...)
		if c.err == io.EOF {
			break
		}
		if c.err != nil {
			t.Fatalf("read %d: %v", read, c.err)
		}
	}
	if string(body) != payload {
		t.Fatalf("body corrupted: got %d bytes, want %d", len(body), len(payload))
	}
	if waited := clk.Now().Sub(time.Unix(1_700_000_000, 0)); waited < 2*50*time.Millisecond {
		t.Fatalf("body arrived after %v of drip, want >= 100ms (a delay before each chunk after the first)", waited)
	}
}

// TestInjectedDelaysEndWithTheRequestContext: a latency rule's wait and a
// slow body's drip end with the request context's error as soon as that
// context is done, without the clock moving — a client deadline cuts
// injected latency short, as it would real network latency.
func TestInjectedDelaysEndWithTheRequestContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, strings.Repeat("x", 3*slowChunk))
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	start := time.Unix(1_700_000_000, 0)

	t.Run("latency", func(t *testing.T) {
		clk := newManualClock()
		tr := New(nil)
		tr.SetClock(clk)
		tr.Set(Rule{Match: host, Mode: ModeLatency, Delay: time.Hour})

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if _, err := tr.RoundTrip(req); !errors.Is(err, context.Canceled) {
			t.Fatalf("already-canceled request: err = %v, want context.Canceled", err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		req, _ = http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		done := make(chan error, 1)
		go func() {
			resp, err := tr.RoundTrip(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		clk.BlockUntil(1)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("request canceled mid-latency: err = %v, want context.Canceled", err)
		}
		if !clk.Now().Equal(start) {
			t.Fatal("the clock moved")
		}
	})

	t.Run("slow body", func(t *testing.T) {
		clk := newManualClock()
		tr := New(nil)
		tr.SetClock(clk)
		tr.Set(Rule{Match: host, Mode: ModeSlow, Delay: time.Hour})

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, slowChunk)
		if _, err := resp.Body.Read(buf); err != nil {
			t.Fatalf("first chunk: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := resp.Body.Read(buf)
			done <- err
		}()
		clk.BlockUntil(1)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("body canceled mid-drip: err = %v, want context.Canceled", err)
		}
		if !clk.Now().Equal(start) {
			t.Fatal("the clock moved")
		}
	})
}

func TestParse(t *testing.T) {
	rules, err := Parse("partition=127.0.0.1:7183; latency=127.0.0.1:7182:300ms ;slow=:7184:50ms;partition=10.0.0.9:after2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Match: "127.0.0.1:7183", Mode: ModePartition},
		{Match: "127.0.0.1:7182", Mode: ModeLatency, Delay: 300 * time.Millisecond},
		{Match: ":7184", Mode: ModeSlow, Delay: 50 * time.Millisecond},
		{Match: "10.0.0.9", Mode: ModePartition, After: 2},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d: %+v", len(rules), len(want), rules)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"nonsense",
		"teleport=127.0.0.1:7183",
		"latency=127.0.0.1:7182", // missing required delay
		"partition=",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
}

func TestWrapEmptySpecIsInert(t *testing.T) {
	inner := http.DefaultTransport
	rt, err := Wrap(inner, "")
	if err != nil {
		t.Fatal(err)
	}
	if rt != inner {
		t.Fatal("empty spec should return the inner transport unchanged")
	}
	if _, err := Wrap(inner, "latency=x"); err == nil {
		t.Fatal("bad spec should fail Wrap")
	}
}
