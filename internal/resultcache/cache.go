// Package resultcache is a content-addressed on-disk cache for executed
// scenarios, keyed by the canonical-spec SHA-256 fingerprint
// (scenario.Spec.Fingerprint — the same hashing run manifests use). A hit
// returns the stored result bytes without re-simulating; because every run
// is seed-deterministic, cached bytes are identical to what a fresh run
// would produce, so hits are safe at any layer (CLI sweep or HTTP server).
//
// Layout (one directory per entry, one file per artifact, plus a checksum
// manifest):
//
//	<root>/v2/<fingerprint>/table.txt
//	<root>/v2/<fingerprint>/table.csv
//	<root>/v2/<fingerprint>/manifest.json
//	<root>/v2/<fingerprint>/sums.json
//
// Writes are atomic: the entry is staged under <root>/tmp and renamed into
// place, so readers never observe a partial entry and concurrent writers of
// the same fingerprint converge on one complete copy. The v2 path segment
// versions the entry format — v2 added mandatory per-file SHA-256 sums, so
// v1 entries are simply never hit again.
//
// The cache is built for sick disks, not just healthy ones:
//
//   - Reads are checksum-verified. An entry whose bytes do not match its
//     recorded sums (bit rot, torn write that slipped past rename, manual
//     tampering) is quarantined — moved aside, counted, reported as a miss —
//     and is never served.
//   - I/O errors never propagate to callers as errors. A failed read is a
//     miss; a failed write loses one cache fill. A circuit breaker counts
//     consecutive I/O errors and, once open, bypasses the disk entirely
//     (compute-always) until a cooldown elapses, so a dying volume costs
//     latency, not availability.
//   - Every disk operation goes through faultfs.FS, so ENOSPC, EIO and torn
//     writes are injectable in tests.
//
// The cache is size-bounded. It keeps a running payload total, taken by a
// scan when the cache is opened and raised by every entry this process
// publishes; only a Put that takes the total over the budget scans the
// directory again, evicts least-recently-used entries (by directory mtime,
// refreshed on every hit) until the payload fits, and resets the total from
// that scan.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tempriv/internal/clock"
	"tempriv/internal/faultfs"
)

// formatVersion names the on-disk entry layout.
const formatVersion = "v2"

// sumsFile is the per-entry checksum manifest.
const sumsFile = "sums.json"

// DefaultMaxBytes bounds the cache payload when Open is given no budget.
const DefaultMaxBytes = 256 << 20

// The breaker opens after breakerThreshold consecutive I/O errors and
// probes the disk again breakerCooldown later.
const (
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

// entryFiles are the artifacts every complete entry holds (sums.json is
// tracked separately — it checksums these).
var entryFiles = []string{"table.txt", "table.csv", "manifest.json"}

// Entry is one cached scenario result.
type Entry struct {
	// Fingerprint is the scenario's content address (hex SHA-256).
	Fingerprint string
	// TableText and TableCSV are the rendered result tables.
	TableText []byte
	TableCSV  []byte
	// Manifest is the provenance record (scenario.Manifest JSON).
	Manifest []byte
}

// Stats is a snapshot of cache effectiveness and health counters.
type Stats struct {
	// Hits and Misses count Get outcomes since Open.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries removed by the size bound since Open.
	Evictions uint64 `json:"evictions"`
	// Quarantined counts corrupt entries moved aside by checksum
	// verification; IOErrors counts disk operations that failed; Bypassed
	// counts operations short-circuited by the open breaker.
	Quarantined uint64 `json:"quarantined"`
	IOErrors    uint64 `json:"io_errors"`
	Bypassed    uint64 `json:"bypassed"`
	// Breaker is the disk-health circuit breaker's current state.
	Breaker BreakerState `json:"breaker"`
	// Entries and Bytes describe the current on-disk population.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Hooks observe cache health events (telemetry wiring). All hooks may be
// nil and must be fast; they are called synchronously.
type Hooks struct {
	// Quarantine fires when a corrupt entry is moved aside.
	Quarantine func(fingerprint string)
	// BreakerChange fires on every breaker transition.
	BreakerChange func(from, to BreakerState)
	// IOError fires on every failed disk operation.
	IOError func(err error)
}

// Config assembles a cache with explicit seams (tests inject a faulty
// filesystem and a manual clock; production uses Open).
type Config struct {
	// Dir is the cache root (required).
	Dir string
	// MaxBytes bounds the stored payload; 0 means DefaultMaxBytes,
	// negative means unbounded.
	MaxBytes int64
	// FS is the filesystem seam (nil = the real OS filesystem).
	FS faultfs.FS
	// Clock feeds the breaker and recency refresh (nil = clock.Real).
	Clock clock.Clock
	// Hooks observe health events.
	Hooks Hooks
}

// Cache is a fingerprint-keyed result store. Safe for concurrent use by
// multiple goroutines; concurrent processes sharing one root are safe too
// (writes are rename-atomic), though their accounting is independent: each
// process counts only its own puts between scans, so the directory can
// exceed the budget by the other writers' puts until some writer's total
// crosses it and that writer's scan evicts down to the budget.
type Cache struct {
	root     string
	maxBytes int64
	fs       faultfs.FS
	clock    clock.Clock
	hooks    Hooks
	brk      *breaker

	mu sync.Mutex
	// bytes is the payload total the budget is checked against: the last
	// scan's total plus the entries published since.
	bytes       int64
	hits        uint64
	misses      uint64
	evictions   uint64
	quarantined uint64
	ioErrors    uint64
	bypassed    uint64
}

// Open prepares a cache rooted at dir with the default (healthy-disk)
// configuration, creating it if needed. maxBytes bounds the total stored
// payload; 0 means DefaultMaxBytes, negative means unbounded.
func Open(dir string, maxBytes int64) (*Cache, error) {
	return OpenConfig(Config{Dir: dir, MaxBytes: maxBytes})
}

// OpenConfig prepares a cache from an explicit configuration.
func OpenConfig(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real
	}
	for _, sub := range []string{formatVersion, "tmp", "quarantine"} {
		if err := cfg.FS.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: preparing %s: %w", cfg.Dir, err)
		}
	}
	c := &Cache{
		root:     cfg.Dir,
		maxBytes: cfg.MaxBytes,
		fs:       cfg.FS,
		clock:    cfg.Clock,
		hooks:    cfg.Hooks,
		brk:      newBreaker(cfg.Clock, cfg.Hooks.BreakerChange),
	}
	if c.maxBytes >= 0 {
		_, total, err := c.scan()
		if err != nil {
			return nil, err
		}
		c.bytes = total
	}
	return c, nil
}

// sums computes the per-file checksum manifest for an entry's payloads.
func sums(payloads [][]byte) map[string]string {
	out := make(map[string]string, len(entryFiles))
	for i, name := range entryFiles {
		h := sha256.Sum256(payloads[i])
		out[name] = hex.EncodeToString(h[:])
	}
	return out
}

// Get looks the fingerprint up. A complete, checksum-verified entry returns
// (entry, true); anything else — absence, disk errors, corruption — is a
// miss, never an error (the only error is a malformed fingerprint). Corrupt
// entries are quarantined so they cannot be served later; disk errors feed
// the breaker. Hits refresh the entry's recency so hot scenarios survive
// eviction.
func (c *Cache) Get(fingerprint string) (*Entry, bool, error) {
	dir, err := c.entryDir(fingerprint)
	if err != nil {
		return nil, false, err
	}
	if !c.brk.allow() {
		c.count(&c.bypassed)
		c.count(&c.misses)
		return nil, false, nil
	}

	sumsRaw, err := c.fs.ReadFile(filepath.Join(dir, sumsFile))
	if errors.Is(err, os.ErrNotExist) {
		c.opOK()
		c.count(&c.misses)
		return nil, false, nil
	}
	if err != nil {
		c.ioError(err)
		c.count(&c.misses)
		return nil, false, nil
	}
	var want map[string]string
	if err := json.Unmarshal(sumsRaw, &want); err != nil {
		c.quarantine(fingerprint, dir)
		c.count(&c.misses)
		return nil, false, nil
	}

	e := &Entry{Fingerprint: fingerprint}
	dests := []*[]byte{&e.TableText, &e.TableCSV, &e.Manifest}
	for i, name := range entryFiles {
		b, err := c.fs.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			// sums.json exists but a payload is gone: the entry is broken,
			// not merely absent.
			c.quarantine(fingerprint, dir)
			c.count(&c.misses)
			return nil, false, nil
		}
		if err != nil {
			c.ioError(err)
			c.count(&c.misses)
			return nil, false, nil
		}
		h := sha256.Sum256(b)
		if want[name] != hex.EncodeToString(h[:]) {
			c.quarantine(fingerprint, dir)
			c.count(&c.misses)
			return nil, false, nil
		}
		*dests[i] = b
	}
	c.opOK()
	now := c.clock.Now()
	// Recency refresh is advisory: a failed Chtimes (e.g. read-only FS)
	// only weakens LRU ordering, never correctness.
	_ = c.fs.Chtimes(dir, now, now)
	c.count(&c.hits)
	return e, true, nil
}

// Put stores the entry atomically (payloads plus their checksum manifest),
// then enforces the size bound, scanning the directory only when the
// running total exceeds it. Storing a fingerprint that already exists is a
// no-op that adds nothing to the total (content addressing: equal keys
// mean equal bytes). With the breaker open, Put is a silent bypass — the
// result simply is not cached.
func (c *Cache) Put(e *Entry) error {
	dir, err := c.entryDir(e.Fingerprint)
	if err != nil {
		return err
	}
	if !c.brk.allow() {
		c.count(&c.bypassed)
		return nil
	}
	if _, err := c.fs.Stat(dir); err == nil {
		c.opOK()
		return nil
	}
	stage, err := c.fs.MkdirTemp(filepath.Join(c.root, "tmp"), e.Fingerprint[:8]+"-")
	if err != nil {
		c.ioError(err)
		return fmt.Errorf("resultcache: staging entry: %w", err)
	}
	defer c.fs.RemoveAll(stage) // no-op after a successful rename
	payloads := [][]byte{e.TableText, e.TableCSV, e.Manifest}
	sumsJSON, err := json.Marshal(sums(payloads))
	if err != nil {
		return fmt.Errorf("resultcache: encoding sums: %w", err)
	}
	names := append(append([]string(nil), entryFiles...), sumsFile)
	contents := append(payloads, sumsJSON)
	for i, name := range names {
		if err := c.fs.WriteFile(filepath.Join(stage, name), contents[i], 0o644); err != nil {
			c.ioError(err)
			return fmt.Errorf("resultcache: writing %s: %w", name, err)
		}
	}
	if err := c.fs.Rename(stage, dir); err != nil {
		// A concurrent writer may have landed the same fingerprint first;
		// content addressing makes that a success, not a conflict.
		if _, statErr := c.fs.Stat(dir); statErr == nil {
			return nil
		}
		c.ioError(err)
		return fmt.Errorf("resultcache: publishing %s: %w", e.Fingerprint, err)
	}
	c.opOK()
	c.mu.Lock()
	c.bytes += int64(len(e.TableText) + len(e.TableCSV) + len(e.Manifest))
	over := c.maxBytes >= 0 && c.bytes > c.maxBytes
	c.mu.Unlock()
	if over {
		c.evict()
	}
	return nil
}

// Stats returns the effectiveness counters and the current population.
func (c *Cache) Stats() Stats {
	entries, bytes, _ := c.scan()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Quarantined: c.quarantined, IOErrors: c.ioErrors, Bypassed: c.bypassed,
		Breaker: c.brk.current(),
		Entries: len(entries), Bytes: bytes,
	}
}

// BreakerState returns the disk-health breaker's current state.
func (c *Cache) BreakerState() BreakerState {
	return c.brk.current()
}

func (c *Cache) count(field *uint64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// opOK feeds a healthy disk operation to the breaker.
func (c *Cache) opOK() {
	c.brk.success()
}

// ioError records a failed disk operation: counted, surfaced to the hook,
// fed to the breaker.
func (c *Cache) ioError(err error) {
	c.count(&c.ioErrors)
	if c.hooks.IOError != nil {
		c.hooks.IOError(err)
	}
	c.brk.failure()
}

// quarantine moves a corrupt entry aside so it can never be served, and
// counts it. Quarantined entries live under <root>/quarantine for post-hoc
// inspection; if even the move fails, the entry is deleted outright.
func (c *Cache) quarantine(fingerprint, dir string) {
	dest := filepath.Join(c.root, "quarantine", fingerprint)
	_ = c.fs.RemoveAll(dest) // re-quarantine replaces the old capture
	if err := c.fs.Rename(dir, dest); err != nil {
		_ = c.fs.RemoveAll(dir)
	}
	c.count(&c.quarantined)
	if c.hooks.Quarantine != nil {
		c.hooks.Quarantine(fingerprint)
	}
}

// entryDir validates the fingerprint (it becomes a path segment, so it must
// be exactly a 64-char lowercase hex string — anything else is rejected to
// make traversal impossible) and returns the entry directory.
func (c *Cache) entryDir(fingerprint string) (string, error) {
	if len(fingerprint) != 64 {
		return "", fmt.Errorf("resultcache: fingerprint %q is not a sha256 hex digest", fingerprint)
	}
	for _, r := range fingerprint {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return "", fmt.Errorf("resultcache: fingerprint %q is not a sha256 hex digest", fingerprint)
		}
	}
	return filepath.Join(c.root, formatVersion, fingerprint), nil
}

type scanned struct {
	dir   string
	mtime time.Time
	bytes int64
}

// scan walks the entry population, returning per-entry sizes and the total.
func (c *Cache) scan() ([]scanned, int64, error) {
	versionDir := filepath.Join(c.root, formatVersion)
	dirs, err := c.fs.ReadDir(versionDir)
	if err != nil {
		return nil, 0, fmt.Errorf("resultcache: scanning: %w", err)
	}
	var out []scanned
	var total int64
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		entry := scanned{dir: filepath.Join(versionDir, d.Name())}
		if info, err := d.Info(); err == nil {
			entry.mtime = info.ModTime()
		}
		for _, name := range entryFiles {
			if fi, err := c.fs.Stat(filepath.Join(entry.dir, name)); err == nil {
				entry.bytes += fi.Size()
			}
		}
		total += entry.bytes
		out = append(out, entry)
	}
	return out, total, nil
}

// evict removes least-recently-used entries until the payload fits
// maxBytes, then resets the running total from the scan. Entries published
// while it runs stay counted on top, so concurrent puts can only make the
// total overstate the directory, never understate it. At least one entry
// always survives, so a single oversized result cannot wedge the cache into
// rewriting itself forever. Eviction errors feed the breaker but never fail
// the Put that triggered them.
func (c *Cache) evict() {
	c.mu.Lock()
	before := c.bytes
	c.mu.Unlock()
	entries, total, err := c.scan()
	if err != nil {
		c.ioError(err)
		return
	}
	if total > c.maxBytes && len(entries) > 1 {
		sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
		for _, e := range entries[:len(entries)-1] {
			if total <= c.maxBytes {
				break
			}
			if err := c.fs.RemoveAll(e.dir); err != nil {
				c.ioError(err)
				break
			}
			total -= e.bytes
			c.count(&c.evictions)
		}
	}
	c.mu.Lock()
	c.bytes += total - before
	c.mu.Unlock()
}
