package jobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes through journal replay. The contract is
// fail-closed: hostile journals (truncated, garbage, duplicated, or
// interleaved records) must never panic, never yield duplicate job IDs, and
// never resurrect a job the journal does not coherently describe.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"t":"submit","job":"job-000001","fp":"ab","spec":{"version":1}}` + "\n"))
	f.Add([]byte(`{"t":"submit","job":"job-000001","fp":"ab","spec":{}}` + "\n" +
		`{"t":"submit","job":"job-000001","fp":"ab","spec":{}}` + "\n"))
	f.Add([]byte(`{"t":"state","job":"job-000001","state":"done"}` + "\n"))
	f.Add([]byte(`{"t":"state","job":"job-000001","state":"done"`)) // torn tail
	f.Add([]byte(`{"t":"submit","job":"../../../etc/passwd","fp":"x","spec":{}}` + "\n"))
	f.Add([]byte("\x00\xff\xfe garbage\n{\"t\":\"submit\"}\n"))
	// Older journals: running, queued and chunk records, which replay skips.
	f.Add([]byte(`{"t":"submit","job":"job-000001","fp":"ab","spec":{}}` + "\n" +
		`{"t":"state","job":"job-000001","state":"running","attempt":1}` + "\n" +
		`{"t":"chunk","job":"job-000001","hwm":0}` + "\n" +
		`{"t":"chunk","job":"job-000001","hwm":3}` + "\n" +
		`{"t":"state","job":"job-000001","state":"queued"}` + "\n"))
	f.Add([]byte(`{"t":"submit","job":"job-000002","fp":"ab","spec":{}}` + "\n" +
		`{"t":"state","job":"job-000002","state":"done","attempt":1}` + "\n" +
		`{"t":"chunk","job":"job-000002","hwm":2}` + "\n" +
		`{"t":"state","job":"job-000002","state":"running"}` + "\n" +
		`{"t":"chunk","job":"job-000003","hwm":-1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Skip()
		}
		j, err := Open(dir, Options{})
		if err != nil {
			// Open may fail on filesystem grounds, never panic.
			return
		}
		defer j.Close()
		seen := make(map[string]bool)
		for _, job := range j.Jobs() {
			if seen[job.ID] {
				t.Fatalf("duplicate job ID replayed: %s", job.ID)
			}
			seen[job.ID] = true
			if !validJobID.MatchString(job.ID) {
				t.Fatalf("invalid job ID replayed: %q", job.ID)
			}
			if len(job.SpecJSON) == 0 || job.Fingerprint == "" {
				t.Fatalf("incomplete job replayed: %+v", job)
			}
		}
		// Replay must be idempotent: compact + reopen yields the same set.
		if err := j.Compact(); err != nil {
			return
		}
		j.Close()
		j2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer j2.Close()
		if st := j2.Stats(); st.CorruptLines+st.DuplicateSubmits+st.OrphanStates != 0 {
			t.Fatalf("compacted journal replayed dirty: %+v", st)
		}
		again := j2.Jobs()
		if len(again) != len(seen) {
			t.Fatalf("compaction changed population: %d -> %d", len(seen), len(again))
		}
		for _, job := range again {
			if !seen[job.ID] {
				t.Fatalf("compaction invented job %s", job.ID)
			}
		}
		_ = fmt.Sprintf("%v", again) // exercise stringers on replayed data
	})
}
