package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tempriv/internal/clock"
	"tempriv/internal/faultfs"
)

func newManualClock() *clock.Manual { return clock.NewManual(time.Unix(1_700_000_000, 0)) }

func openFaulty(t *testing.T, ff *faultfs.Faulty, clk *clock.Manual, hooks Hooks) *Cache {
	t.Helper()
	c, err := OpenConfig(Config{
		Dir:   t.TempDir(),
		FS:    ff,
		Clock: clk,
		Hooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorruptEntryQuarantinedAsMiss(t *testing.T) {
	dir := t.TempDir()
	var quarantined []string
	c, err := OpenConfig(Config{Dir: dir, Hooks: Hooks{
		Quarantine: func(fp string) { quarantined = append(quarantined, fp) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 64)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	// Flip bits in a payload behind the cache's back.
	victim := filepath.Join(dir, "v2", e.Fingerprint, "table.txt")
	if err := os.WriteFile(victim, []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
		t.Fatalf("corrupt entry must miss, got ok=%v err=%v", ok, err)
	}
	st := c.Stats()
	if st.Quarantined != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(quarantined) != 1 || quarantined[0] != e.Fingerprint {
		t.Fatalf("quarantine hook saw %v", quarantined)
	}
	// The entry moved aside: gone from the serving tree, preserved for
	// inspection, and a re-Put can land cleanly.
	if _, err := os.Stat(filepath.Join(dir, "v2", e.Fingerprint)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in serving tree: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", e.Fingerprint)); err != nil {
		t.Fatalf("quarantine capture missing: %v", err)
	}
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(e.Fingerprint)
	if err != nil || !ok || !bytes.Equal(got.TableText, e.TableText) {
		t.Fatalf("re-Put after quarantine did not serve: ok=%v err=%v", ok, err)
	}
}

func TestCorruptSumsQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(2, 32)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "v2", e.Fingerprint, sumsFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMissingPayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(3, 32)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "v2", e.Fingerprint, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(e.Fingerprint); ok {
		t.Fatal("entry with missing payload served")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReadErrorsAreMissesNeverErrors(t *testing.T) {
	ff := faultfs.NewFaulty(faultfs.OS{})
	clk := newManualClock()
	c := openFaulty(t, ff, clk, Hooks{})
	e := testEntry(4, 32)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	ff.Set(faultfs.OpRead, faultfs.Fault{Err: faultfs.ErrIO})
	if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
		t.Fatalf("sick read must be a miss, got ok=%v err=%v", ok, err)
	}
	ff.Clear(faultfs.OpRead)
	if _, ok, err := c.Get(e.Fingerprint); err != nil || !ok {
		t.Fatalf("healthy read after fault cleared: ok=%v err=%v", ok, err)
	}
	st := c.Stats()
	if st.IOErrors == 0 {
		t.Fatalf("I/O error not counted: %+v", st)
	}
}

func TestBreakerOpensAndBypassesThenRecovers(t *testing.T) {
	ff := faultfs.NewFaulty(faultfs.OS{})
	clk := newManualClock()
	var transitions []BreakerState
	c := openFaulty(t, ff, clk, Hooks{
		BreakerChange: func(_, to BreakerState) { transitions = append(transitions, to) },
	})
	e := testEntry(5, 32)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}

	ff.Set(faultfs.OpRead, faultfs.Fault{Err: faultfs.ErrIO})
	for i := 0; i < breakerThreshold; i++ {
		if got := c.BreakerState(); got != BreakerClosed {
			t.Fatalf("after %d consecutive I/O errors breaker is %s", i, got)
		}
		if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("after %d consecutive I/O errors breaker is %s", breakerThreshold, got)
	}

	// Open breaker: operations bypass the disk entirely — even though the
	// fault is still armed, no further I/O errors accrue.
	before := c.Stats().IOErrors
	for i := 0; i < 4; i++ {
		if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
			t.Fatalf("bypass get: ok=%v err=%v", ok, err)
		}
	}
	st := c.Stats()
	if st.IOErrors != before {
		t.Fatalf("open breaker still touched the disk: %+v", st)
	}
	if st.Bypassed < 4 {
		t.Fatalf("bypasses not counted: %+v", st)
	}

	// Cooldown elapses with the disk still sick: the half-open probe fails
	// and the breaker re-opens.
	clk.Advance(breakerCooldown - time.Nanosecond)
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker %s before its cooldown elapsed", got)
	}
	clk.Advance(time.Nanosecond)
	if _, ok, _ := c.Get(e.Fingerprint); ok {
		t.Fatal("probe served from a sick disk")
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("failed probe left breaker %s", got)
	}

	// Disk heals; after the next cooldown the probe succeeds and closes it.
	ff.Clear(faultfs.OpRead)
	clk.Advance(breakerCooldown)
	if _, ok, err := c.Get(e.Fingerprint); err != nil || !ok {
		t.Fatalf("healed probe: ok=%v err=%v", ok, err)
	}
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("successful probe left breaker %s", got)
	}

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestPutENOSPCFeedsBreakerThenBypasses(t *testing.T) {
	ff := faultfs.NewFaulty(faultfs.OS{})
	clk := newManualClock()
	c := openFaulty(t, ff, clk, Hooks{})
	ff.Set(faultfs.OpWrite, faultfs.Fault{Err: faultfs.ErrNoSpace})
	for i := 0; i < 3; i++ {
		if err := c.Put(testEntry(10+i, 32)); err == nil {
			t.Fatalf("Put %d on a full disk should error", i)
		}
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("full disk did not open breaker: %s", got)
	}
	// With the breaker open, Put degrades to a silent bypass: the serving
	// path sees success, the result just is not cached.
	if err := c.Put(testEntry(20, 32)); err != nil {
		t.Fatalf("bypassed Put must not error: %v", err)
	}
	st := c.Stats()
	if st.Bypassed == 0 {
		t.Fatalf("bypass not counted: %+v", st)
	}
	// After healing + cooldown, writes land again.
	ff.Clear(faultfs.OpWrite)
	clk.Advance(breakerCooldown)
	e := testEntry(21, 32)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(e.Fingerprint); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestTornWriteNeverServesPartialEntry(t *testing.T) {
	ff := faultfs.NewFaulty(faultfs.OS{})
	clk := newManualClock()
	c := openFaulty(t, ff, clk, Hooks{})
	e := testEntry(30, 256)
	// The first write lands only half its bytes, then the fault clears.
	ff.Set(faultfs.OpWrite, faultfs.Fault{Err: faultfs.ErrIO, Torn: true})
	if err := c.Put(e); err == nil {
		t.Fatal("torn Put should report the write error")
	}
	ff.Clear(faultfs.OpWrite)
	// Nothing partial is visible: the stage directory never got renamed in.
	got, ok, err := c.Get(e.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if ok && !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("torn write served partial bytes")
	}
	if ok {
		t.Fatal("failed Put published an entry")
	}
	// A clean retry serves full bytes.
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err = c.Get(e.Fingerprint)
	if err != nil || !ok || !bytes.Equal(got.TableText, e.TableText) {
		t.Fatalf("retry after torn write: ok=%v err=%v", ok, err)
	}
}
