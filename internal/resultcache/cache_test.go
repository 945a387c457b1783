package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tempriv/internal/faultfs"
)

func testFingerprint(i int) string {
	return fmt.Sprintf("%064x", i)
}

func testEntry(i, size int) *Entry {
	return &Entry{
		Fingerprint: testFingerprint(i),
		TableText:   bytes.Repeat([]byte{'t'}, size),
		TableCSV:    []byte("a,b\n1,2\n"),
		Manifest:    []byte(`{"kind":"experiment"}`),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry(1, 100)
	if _, ok, err := c.Get(want.Fingerprint); err != nil || ok {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	if err := c.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(want.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("expected hit, got ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, want.TableText) ||
		!bytes.Equal(got.TableCSV, want.TableCSV) ||
		!bytes.Equal(got.Manifest, want.Manifest) {
		t.Fatal("cached bytes differ from stored bytes")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats bytes not accounted: %+v", st)
	}
}

func TestPutIsIdempotent(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	// A second Put of the same fingerprint must not disturb the entry.
	e2 := testEntry(1, 10)
	e2.TableText = []byte("different")
	if err := c.Put(e2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(e.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("second Put overwrote the original entry")
	}
}

func TestInvalidFingerprintRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"abc",
		strings.Repeat("g", 64),       // not hex
		strings.Repeat("A", 64),       // upper case
		"../../../../etc/passwd",      // traversal
		strings.Repeat("a", 63) + "/", // separator
		strings.Repeat("a", 65),       // wrong length
	}
	for _, fp := range bad {
		if err := c.Put(&Entry{Fingerprint: fp, TableText: []byte("x"), TableCSV: []byte("y"), Manifest: []byte("{}")}); err == nil {
			t.Errorf("Put accepted fingerprint %q", fp)
		}
		if _, ok, err := c.Get(fp); err == nil || ok {
			t.Errorf("Get accepted fingerprint %q (ok=%v err=%v)", fp, ok, err)
		}
	}
	// Nothing escaped the cache root.
	if _, err := os.Stat(filepath.Join(dir, "v2")); err == nil {
		entries, _ := os.ReadDir(filepath.Join(dir, "v2"))
		if len(entries) != 0 {
			t.Fatalf("unexpected entries: %v", entries)
		}
	}
}

func TestPartialEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "v2", e.Fingerprint, "table.csv")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
		t.Fatalf("partial entry should miss, got ok=%v err=%v", ok, err)
	}
}

func TestEvictionKeepsRecent(t *testing.T) {
	dir := t.TempDir()
	// Each entry is ~4KiB of table text; budget fits roughly three.
	c, err := Open(dir, 13<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e := testEntry(i, 4<<10)
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
		// Age the directory so mtime ordering is unambiguous even on
		// coarse-grained filesystems.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "v2", e.Fingerprint), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Re-run eviction now that mtimes are staggered.
	if err := c.Put(testEntry(6, 4<<10)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats: %+v", st)
	}
	if st.Bytes > 13<<10 {
		t.Fatalf("still over budget: %+v", st)
	}
	// The newest insert survives.
	if _, ok, err := c.Get(testFingerprint(6)); err != nil || !ok {
		t.Fatalf("newest entry evicted: ok=%v err=%v", ok, err)
	}
	// The oldest is gone.
	if _, ok, _ := c.Get(testFingerprint(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Put(testEntry(i, 8<<10)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != 5 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

func TestReopenSeesExistingEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c2.Get(e.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("reopened cache missed: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("reopened cache returned different bytes")
	}
}

func TestConcurrentSameFingerprint(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Put(testEntry(1, 100)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := c.Get(e.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("racing writers corrupted the entry")
	}
}

// countingFS counts the directory listings and stats a cache issues.
type countingFS struct {
	faultfs.FS
	mu       sync.Mutex
	readDirs int
	stats    int
}

func (f *countingFS) ReadDir(name string) ([]os.DirEntry, error) {
	f.mu.Lock()
	f.readDirs++
	f.mu.Unlock()
	return f.FS.ReadDir(name)
}

func (f *countingFS) Stat(name string) (os.FileInfo, error) {
	f.mu.Lock()
	f.stats++
	f.mu.Unlock()
	return f.FS.Stat(name)
}

// take returns the counts so far and zeroes them.
func (f *countingFS) take() (readDirs, stats int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	readDirs, stats = f.readDirs, f.stats
	f.readDirs, f.stats = 0, 0
	return readDirs, stats
}

func openCounting(t *testing.T, dir string, maxBytes int64) (*Cache, *countingFS) {
	t.Helper()
	fs := &countingFS{FS: faultfs.OS{}}
	c, err := OpenConfig(Config{Dir: dir, MaxBytes: maxBytes, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// TestPutUnderBudgetDoesNotRescan pins the cost of a fill: under the
// budget, a Put lists no directory and stats as many paths into a cache of
// 400 entries as into a cache of one.
func TestPutUnderBudgetDoesNotRescan(t *testing.T) {
	statsAt := map[int]int{}
	for _, n := range []int{1, 400} {
		c, fs := openCounting(t, t.TempDir(), 0)
		for i := 0; i < n; i++ {
			if err := c.Put(testEntry(i, 64)); err != nil {
				t.Fatal(err)
			}
		}
		fs.take()
		if err := c.Put(testEntry(n, 64)); err != nil {
			t.Fatal(err)
		}
		readDirs, stats := fs.take()
		if readDirs != 0 {
			t.Errorf("Put into %d entries listed %d directories, want 0", n, readDirs)
		}
		statsAt[n] = stats
	}
	if statsAt[1] != statsAt[400] {
		t.Errorf("Put stats %d paths into 1 entry and %d into 400: the fill still scales with the cache", statsAt[1], statsAt[400])
	}
}

// TestPutCrossingBudgetEvictsOldest pins that the running total still
// enforces the budget: the Put that crosses it scans once and evicts the
// oldest entries, and the Puts before it scan nothing.
func TestPutCrossingBudgetEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	c, fs := openCounting(t, dir, 13<<10)
	fs.take()
	age := func(i int) {
		t.Helper()
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "v2", testFingerprint(i)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testEntry(i, 4<<10)); err != nil {
			t.Fatal(err)
		}
		age(i)
	}
	if readDirs, _ := fs.take(); readDirs != 0 {
		t.Fatalf("Puts under the budget listed %d directories, want 0", readDirs)
	}
	if err := c.Put(testEntry(3, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if readDirs, _ := fs.take(); readDirs != 1 {
		t.Fatalf("the Put crossing the budget listed %d directories, want 1", readDirs)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes > 13<<10 {
		t.Fatalf("after crossing the budget: %+v, want 1 eviction and 3 entries within 13 KiB", st)
	}
	if _, ok, _ := c.Get(testFingerprint(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for i := 1; i <= 3; i++ {
		if _, ok, err := c.Get(testFingerprint(i)); err != nil || !ok {
			t.Fatalf("entry %d evicted: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestReopenedFullCacheEvictsOnFirstPut pins that the total survives a
// restart: a cache reopened with a smaller budget over a directory already
// past it evicts on its first Put.
func TestReopenedFullCacheEvictsOnFirstPut(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Put(testEntry(i, 4<<10)); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "v2", testFingerprint(i)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := Open(dir, 13<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(testEntry(5, 16)); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Evictions == 0 || st.Bytes > 13<<10 {
		t.Fatalf("first Put over a full directory did not evict to the budget: %+v", st)
	}
	if _, ok, _ := c2.Get(testFingerprint(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok, err := c2.Get(testFingerprint(5)); err != nil || !ok {
		t.Fatalf("newest entry evicted: ok=%v err=%v", ok, err)
	}
}
