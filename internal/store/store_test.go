package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	apiv1 "repro/api/v1"
)

func openT(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func jobN(i int, state string) JobRecord {
	return JobRecord{
		ID:      fmt.Sprintf("j-%d", i),
		Session: "s-1",
		Spec:    apiv1.JobSpec{Litmus: "waw"},
		State:   state,
	}
}

// TestReplayRoundTrip: records appended to one store are recovered,
// with upserts collapsed and id counters resumed.
func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	sess := SessionRecord{ID: "s-1", State: "active",
		Config: apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 3}}
	if err := s.PutSession(sess, true); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(jobN(1, apiv1.JobQueued), true); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(jobN(2, apiv1.JobQueued), true); err != nil {
		t.Fatal(err)
	}
	done := jobN(1, apiv1.JobDone)
	done.Runs = []apiv1.RunResult{{Seed: 3, Outcome: apiv1.OutcomeCompleted, DeterminismHash: "0xabc"}}
	if err := s.PutJob(done, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	st := r.State()
	if len(st.Sessions) != 1 || st.Sessions[0].Config.Seed != 3 {
		t.Fatalf("sessions = %+v", st.Sessions)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("jobs = %+v", st.Jobs)
	}
	if st.Jobs[0].State != apiv1.JobDone || len(st.Jobs[0].Runs) != 1 ||
		st.Jobs[0].Runs[0].DeterminismHash != "0xabc" {
		t.Errorf("job 1 upsert not collapsed: %+v", st.Jobs[0])
	}
	if st.Jobs[1].State != apiv1.JobQueued {
		t.Errorf("job 2 state %q", st.Jobs[1].State)
	}
	if st.NextSession != 1 || st.NextJob != 2 {
		t.Errorf("counters next_session=%d next_job=%d, want 1, 2", st.NextSession, st.NextJob)
	}
}

// TestTornTailTolerated: a crash mid-append leaves a torn frame; Open
// recovers everything before it and truncates the garbage.
func TestTornTailTolerated(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(path string, t *testing.T)
	}{
		{"torn header", func(path string, t *testing.T) {
			appendBytes(t, path, []byte{0x42, 0x00, 0x00})
		}},
		{"torn payload", func(path string, t *testing.T) {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 500)
			appendBytes(t, path, append(hdr[:], []byte("short")...))
		}},
		{"corrupt crc", func(path string, t *testing.T) {
			payload := []byte(`{"job":{"id":"j-9"}}`)
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
			appendBytes(t, path, append(hdr[:], payload...))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir)
			if err := s.PutJob(jobN(1, apiv1.JobQueued), true); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, journalName)
			before := fileSize(t, path)
			tc.mut(path, t)

			r := openT(t, dir)
			st := r.State()
			if len(st.Jobs) != 1 || st.Jobs[0].ID != "j-1" {
				t.Fatalf("recovered jobs = %+v", st.Jobs)
			}
			// The tail was truncated and the journal still accepts appends.
			if got := fileSize(t, path); got != before {
				t.Errorf("journal size %d after recovery, want %d", got, before)
			}
			if err := r.PutJob(jobN(2, apiv1.JobQueued), true); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2 := openT(t, dir)
			defer r2.Close()
			if n := len(r2.State().Jobs); n != 2 {
				t.Errorf("after re-append, %d jobs, want 2", n)
			}
		})
	}
}

// TestCompact: the snapshot absorbs the journal, recovery still sees
// everything, and the journal shrinks to zero.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.PutSession(SessionRecord{ID: "s-1", State: "active",
		Config: apiv1.SessionConfig{Detection: apiv1.DetectionNone}}, true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := s.PutJob(jobN(i, apiv1.JobDone), i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.JournalBytes(); n != 0 {
		t.Errorf("journal %d bytes after compact, want 0", n)
	}
	// Appends after the compaction land in the fresh journal.
	if err := s.PutJob(jobN(11, apiv1.JobQueued), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	st := r.State()
	if len(st.Jobs) != 11 || st.NextJob != 11 {
		t.Fatalf("recovered %d jobs next=%d, want 11, 11", len(st.Jobs), st.NextJob)
	}
}

// TestCompactLargeStateRoundTrips: a snapshot of thousands of job
// records, written record by record, reopens to an identical State; so
// does the same state in the indented form earlier snapshots used.
func TestCompactLargeStateRoundTrips(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.CompactBytes = 0 // one explicit compaction covers everything
	for i := 1; i <= 3; i++ {
		if err := s.PutSession(SessionRecord{ID: fmt.Sprintf("s-%d", i), State: "active",
			Config: apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: int64(i)}}, false); err != nil {
			t.Fatal(err)
		}
	}
	const jobs = 5000
	for i := 1; i <= jobs; i++ {
		rec := jobN(i, apiv1.JobQueued)
		rec.Session = fmt.Sprintf("s-%d", 1+i%3)
		if i%5 != 0 {
			rec.State = apiv1.JobDone
			rec.Attempts = 1 + i%2
			rec.Runs = []apiv1.RunResult{
				{Seed: int64(i), Outcome: apiv1.OutcomeCompleted, DeterminismHash: fmt.Sprintf("%#x", i)},
				{Seed: int64(i + 1), Outcome: apiv1.OutcomeRaceException, Error: "RAW <\"x\">"},
			}
		}
		if i%7 == 0 {
			rec.IdempotencyKey = fmt.Sprintf("k-%d", i)
		}
		if err := s.PutJob(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	want := s.copyStateLocked()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want.Jobs) != jobs {
		t.Fatalf("state holds %d jobs, want %d", len(want.Jobs), jobs)
	}
	r := openT(t, dir)
	got := r.State()
	r.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state differs from the compacted one")
	}

	// The indented form decodes to the same state.
	old := t.TempDir()
	data, err := json.MarshalIndent(&snapshotFile{Schema: 1, Kind: KindSnapshot, State: want}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, snapshotName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r = openT(t, old)
	got = r.State()
	r.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("indented snapshot decodes to a different state")
	}
}

// TestAutoCompact: crossing CompactBytes folds the journal without any
// explicit call.
func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.CompactBytes = 2048
	for i := 1; i <= 100; i++ {
		if err := s.PutJob(jobN(i, apiv1.JobDone), false); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.JournalBytes(); n > 2048+1024 {
		t.Errorf("journal %d bytes, auto-compaction never fired", n)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Errorf("no snapshot written: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	defer r.Close()
	if n := len(r.State().Jobs); n != 100 {
		t.Errorf("recovered %d jobs, want 100", n)
	}
}

// TestConcurrentDurableAppends drives the group-commit path from many
// goroutines; every record must survive a reopen.
func TestConcurrentDurableAppends(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.PutJob(jobN(i+1, apiv1.JobQueued), true)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	defer r.Close()
	if got := len(r.State().Jobs); got != n {
		t.Errorf("recovered %d jobs, want %d", got, n)
	}
}

// TestCompactDuringConcurrentDurableAppends: auto-compaction resets the
// group-commit counters while s.mu is released around fsyncs; a durable
// appender parked with a pre-compaction offset must treat the
// compaction (which made everything durable) as satisfying its wait
// instead of fsync-looping forever against the reset counter.
func TestCompactDuringConcurrentDurableAppends(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.CompactBytes = 256 // every few appends crosses the threshold
	const n = 128
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.PutJob(jobN(i+1, apiv1.JobQueued), true)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("durable appends wedged across a compaction (group-commit livelock)")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	defer r.Close()
	if got := len(r.State().Jobs); got != n {
		t.Errorf("recovered %d jobs, want %d", got, n)
	}
}

// TestMemStore: the in-memory store upserts like the file store.
func TestMemStore(t *testing.T) {
	m := NewMemStore()
	if err := m.PutJob(jobN(1, apiv1.JobQueued), true); err != nil {
		t.Fatal(err)
	}
	done := jobN(1, apiv1.JobDone)
	if err := m.PutJob(done, false); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if len(st.Jobs) != 1 || st.Jobs[0].State != apiv1.JobDone || st.NextJob != 1 {
		t.Fatalf("snapshot = %+v", st.Jobs)
	}
	if n := len(m.State().Jobs); n != 0 {
		t.Errorf("boot state has %d jobs, want 0", n)
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFileStoreMetrics: durable appends and a compaction leave the
// expected telemetry in the store's registry snapshot.
func TestFileStoreMetrics(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()

	for i := 1; i <= 3; i++ {
		if err := s.PutJob(jobN(i, apiv1.JobQueued), true); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics()
	if snap.Counters["store.fsyncs"] < 1 {
		t.Errorf("fsyncs = %d, want >= 1", snap.Counters["store.fsyncs"])
	}
	if snap.Counters["store.journal_records"] != 3 {
		t.Errorf("journal_records = %d, want 3", snap.Counters["store.journal_records"])
	}
	if snap.Gauges["store.journal_bytes"] <= 0 {
		t.Errorf("journal_bytes gauge = %v, want > 0", snap.Gauges["store.journal_bytes"])
	}
	h, ok := snap.Histograms["store.fsync_seconds"]
	if !ok || h.Count < 1 {
		t.Errorf("fsync_seconds histogram missing or empty: %+v", h)
	}
	gc, ok := snap.Histograms["store.group_commit_records"]
	if !ok || gc.Count < 1 || gc.Sum != 3 {
		t.Errorf("group_commit_records = %+v, want count>=1 sum=3", gc)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap = s.Metrics()
	if snap.Counters["store.compactions"] != 1 {
		t.Errorf("compactions = %d, want 1", snap.Counters["store.compactions"])
	}
	if snap.Gauges["store.journal_bytes"] != 0 {
		t.Errorf("journal_bytes after compact = %v, want 0", snap.Gauges["store.journal_bytes"])
	}
	if snap.Gauges["store.snapshot_bytes"] <= 0 {
		t.Errorf("snapshot_bytes = %v, want > 0", snap.Gauges["store.snapshot_bytes"])
	}
	if ch, ok := snap.Histograms["store.compact_seconds"]; !ok || ch.Count != 1 {
		t.Errorf("compact_seconds = %+v, want count 1", ch)
	}
}
