package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tempriv/internal/faultfs"
	"tempriv/internal/jobs"
	"tempriv/internal/scenario"
)

func testSpec(t *testing.T, seed uint64) scenario.Spec {
	t.Helper()
	doc := fmt.Sprintf(`{"version":1,"experiment":{"id":"fig2a","packets":10,"interarrivals":[4],"seed":%d}}`, seed)
	spec, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func ts(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 1)
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	j.Submitted("job-000001", fp, spec, "", ts(1))
	j.Submitted("job-000002", fp, spec, "", ts(3))
	j.Finished("job-000001", jobs.StateDone, 1, true, "", ts(4))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Open replays the same aggregate.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Jobs()
	if len(got) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(got))
	}
	first, second := got[0], got[1]
	if first.ID != "job-000001" || first.State != jobs.StateDone || !first.CacheHit || first.Attempt != 1 {
		t.Fatalf("first = %+v", first)
	}
	if !first.Submitted.Equal(ts(1)) || !first.Finished.Equal(ts(4)) {
		t.Fatalf("first times = %v / %v", first.Submitted, first.Finished)
	}
	if second.ID != "job-000002" || second.State != jobs.StateQueued {
		t.Fatalf("second = %+v", second)
	}
	// The stored spec re-parses to the identical fingerprint.
	reparsed, err := scenario.Parse(first.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := reparsed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Fatalf("replayed fingerprint %s, want %s", fp2, fp)
	}
}

func TestReplayTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 2)
	fp, _ := spec.Fingerprint()
	j.Submitted("job-000001", fp, spec, "", ts(1))
	j.Close()

	// Simulate a crash mid-append: a half record with no trailing newline.
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"state","job":"job-000001","sta`)
	f.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Jobs()
	if len(got) != 1 || got[0].State != jobs.StateQueued {
		t.Fatalf("jobs = %+v", got)
	}
	if st := j2.Stats(); st.CorruptLines != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt line", st)
	}
}

func TestReplayGarbageAndDuplicatesAndOrphans(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 3)
	canon, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := spec.Fingerprint()
	lines := []string{
		`not json at all`,
		fmt.Sprintf(`{"t":"submit","job":"job-000001","fp":%q,"spec":%s}`, fp, canon),
		fmt.Sprintf(`{"t":"submit","job":"job-000001","fp":%q,"spec":%s}`, fp, canon), // duplicate
		`{"t":"state","job":"job-999999","state":"done"}`,                             // orphan
		`{"t":"state","job":"job-000001","state":"no-such-state"}`,                    // invalid state
		`{"t":"state","job":"job-000001","state":"done","cache_hit":true}`,
		`{"t":"state","job":"job-000001","state":"running"}`, // transition after terminal
		`{"t":"mystery","job":"job-000001"}`,                 // unknown record type
		`{"t":"submit","job":"evil/../../etc","fp":"x","spec":{}}`,
		``,
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := j.Jobs()
	if len(got) != 1 {
		t.Fatalf("replayed %d jobs, want 1 (no double-enqueue)", len(got))
	}
	if got[0].State != jobs.StateDone || !got[0].CacheHit {
		t.Fatalf("job = %+v", got[0])
	}
	st := j.Stats()
	if st.DuplicateSubmits != 1 {
		t.Errorf("duplicates = %d, want 1", st.DuplicateSubmits)
	}
	if st.OrphanStates != 2 { // orphan job + post-terminal transition
		t.Errorf("orphans = %d, want 2", st.OrphanStates)
	}
	if st.CorruptLines != 4 { // garbage, invalid state, unknown type, bad job id
		t.Errorf("corrupt = %d, want 4", st.CorruptLines)
	}
}

// TestReplayOlderJournal: older daemons also journaled running, queued and
// chunk records. Those carry nothing recovery reads, so replay skips them
// without counting them as damage, and compaction drops them.
func TestReplayOlderJournal(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 10)
	canon, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := spec.Fingerprint()
	lines := []string{
		fmt.Sprintf(`{"t":"submit","job":"job-000001","fp":%q,"spec":%s,"ts":"1970-01-01T00:00:01Z"}`, fp, canon),
		`{"t":"state","job":"job-000001","state":"running","attempt":1}`,
		`{"t":"chunk","job":"job-000001","hwm":2}`,
		`{"t":"chunk","job":"job-000001","hwm":0}`,
		`{"t":"chunk","job":"job-000001","hwm":-3}`,
		`{"t":"state","job":"job-000001","state":"queued"}`, // written at restore
		fmt.Sprintf(`{"t":"submit","job":"job-000002","fp":%q,"spec":%s,"ts":"1970-01-01T00:00:02Z"}`, fp, canon),
		`{"t":"state","job":"job-000002","state":"running","attempt":1}`,
		`{"t":"chunk","job":"job-000002","hwm":1}`,
		`{"t":"state","job":"job-000002","state":"done","attempt":1,"cache_hit":true,"ts":"1970-01-01T00:00:03Z"}`,
		`{"t":"chunk","job":"job-000002","hwm":4}`,
		`{"t":"chunk","job":"job-000099","hwm":1}`,
	}
	path := filepath.Join(dir, journalFile)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(j *Journal) {
		t.Helper()
		got := j.Jobs()
		if len(got) != 2 {
			t.Fatalf("replayed %d jobs, want 2: %+v", len(got), got)
		}
		if live := got[0]; live.ID != "job-000001" || live.State != jobs.StateQueued {
			t.Fatalf("live job = %+v, want job-000001 queued", live)
		}
		if done := got[1]; done.ID != "job-000002" || done.State != jobs.StateDone ||
			done.Attempt != 1 || !done.CacheHit || !done.Finished.Equal(ts(3)) {
			t.Fatalf("done job = %+v, want job-000002 done, attempt 1, cache hit, finished at 3s", done)
		}
		if st := j.Stats(); st.CorruptLines+st.OrphanStates+st.DuplicateSubmits != 0 {
			t.Fatalf("older records counted as damage: %+v", st)
		}
	}
	check(j)

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	subs := strings.Count(string(data), `"t":"submit"`)
	ends := strings.Count(string(data), `"t":"state"`)
	if all := strings.Count(string(data), "\n"); subs != 2 || ends != 1 || all != 3 {
		t.Fatalf("compacted journal holds %d submit, %d state and %d records in all, want 2, 1 and 3:\n%s", subs, ends, all, data)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2)
}

func TestCompactionDropsOldTerminalKeepsLive(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{RetainTerminal: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 4)
	fp, _ := spec.Fingerprint()
	for i := 1; i <= 5; i++ {
		id := fmt.Sprintf("job-%06d", i)
		j.Submitted(id, fp, spec, "", ts(i))
		if i <= 4 { // first four finish; job 5 stays queued
			j.Finished(id, jobs.StateDone, 1, false, "", ts(10+i))
		}
	}
	before, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before.Size(), after.Size())
	}
	got := j.Jobs()
	if len(got) != 3 { // 2 retained terminal + 1 live
		t.Fatalf("post-compact jobs = %d, want 3: %+v", len(got), got)
	}
	if got[0].ID != "job-000003" || got[1].ID != "job-000004" || got[2].ID != "job-000005" {
		t.Fatalf("retained %v", []string{got[0].ID, got[1].ID, got[2].ID})
	}
	if got[2].State != jobs.StateQueued {
		t.Fatalf("live job state %q", got[2].State)
	}

	// Appends still work after the handle swap, and a fresh replay of the
	// compacted log matches.
	j.Finished("job-000005", jobs.StateDone, 1, false, "", ts(99))
	j.Close()
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Jobs(); len(got) != 3 || got[2].State != jobs.StateDone {
		t.Fatalf("replay after compaction = %+v", got)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{CompactEvery: 10, RetainTerminal: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	spec := testSpec(t, 5)
	fp, _ := spec.Fingerprint()
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("job-%06d", i)
		j.Submitted(id, fp, spec, "", ts(i))
		j.Finished(id, jobs.StateDone, 1, false, "", ts(i))
	}
	if st := j.Stats(); st.Compactions == 0 {
		t.Fatalf("no auto-compaction after 40 appends: %+v", st)
	}
	if got := j.Jobs(); len(got) != 1 {
		t.Fatalf("retained %d terminal jobs, want 1", len(got))
	}
}

func TestAppendFaultDegradesNotFails(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(nil)
	var hookErrs int
	j, err := Open(dir, Options{FS: fs, OnAppendError: func(error) { hookErrs++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	spec := testSpec(t, 6)
	fp, _ := spec.Fingerprint()

	fs.Set(faultfs.OpWrite, faultfs.Fault{Err: faultfs.ErrNoSpace})
	j.Submitted("job-000001", fp, spec, "", ts(1)) // append lost, aggregate kept
	if st := j.Stats(); st.AppendErrors != 1 || hookErrs != 1 {
		t.Fatalf("stats = %+v, hook = %d", st, hookErrs)
	}

	// Disk heals: compaction restores the lost record from the aggregate.
	fs.ClearAll()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Jobs(); len(got) != 1 || got[0].ID != "job-000001" {
		t.Fatalf("post-heal replay = %+v", got)
	}
}

func TestFsyncFaultCounted(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(nil)
	j, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fs.Set(faultfs.OpSync, faultfs.Fault{Err: faultfs.ErrIO})
	spec := testSpec(t, 7)
	fp, _ := spec.Fingerprint()
	j.Submitted("job-000001", fp, spec, "", ts(1))
	if st := j.Stats(); st.AppendErrors != 1 || st.Appends != 0 {
		t.Fatalf("stats = %+v, want fsync failure counted as append error", st)
	}
}

func TestTornAppendRecoversFraming(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(nil)
	j, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 8)
	fp, _ := spec.Fingerprint()
	j.Submitted("job-000001", fp, spec, "", ts(1))

	// One torn append, then a healthy one.
	fs.Set(faultfs.OpWrite, faultfs.Fault{Err: faultfs.ErrNoSpace, Torn: true, After: 0, PathSubstr: journalFile})
	j.Submitted("job-000002", fp, spec, "", ts(2))
	fs.ClearAll()
	j.Submitted("job-000003", fp, spec, "", ts(3))
	j.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Jobs()
	// Jobs 1 and 3 replay; the torn record for job 2 is skipped as corrupt.
	if len(got) != 2 || got[0].ID != "job-000001" || got[1].ID != "job-000003" {
		t.Fatalf("replay after torn append = %+v", got)
	}
	if st := j2.Stats(); st.CorruptLines == 0 {
		t.Fatalf("torn line not counted: %+v", st)
	}
}

func TestOpenFailsClosedOnUnreadableJournal(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(nil)
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.Set(faultfs.OpRead, faultfs.Fault{Err: faultfs.ErrIO})
	if _, err := Open(dir, Options{FS: fs}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want EIO", err)
	}
}

func TestRecordJSONShape(t *testing.T) {
	// The wire format is part of the durability contract: keys must stay
	// stable so old journals replay on new binaries.
	b, err := json.Marshal(Record{T: "submit", Job: "job-000001", FP: "ff", Spec: json.RawMessage(`{}`), TS: ts(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"t":"submit"`, `"job":"job-000001"`, `"fp":"ff"`, `"spec":{}`, `"ts":`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("record %s missing %s", b, key)
		}
	}
}

func TestOriginSurvivesReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 9)
	fp, _ := spec.Fingerprint()
	j.Submitted("job-000001", fp, spec, jobs.OriginHandoff, ts(1))
	j.Submitted("job-000002", fp, spec, "", ts(2))
	j.Finished("job-000001", jobs.StateDone, 1, false, "", ts(3))
	j.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := j2.Jobs()
	if len(got) != 2 || got[0].Origin != jobs.OriginHandoff || got[1].Origin != "" {
		t.Fatalf("replayed origins wrong: %+v", got)
	}

	// Compaction rewrites submit records; origin must not be dropped.
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	got = j3.Jobs()
	if len(got) != 2 || got[0].Origin != jobs.OriginHandoff || got[1].Origin != "" {
		t.Fatalf("post-compaction origins wrong: %+v", got)
	}
}
