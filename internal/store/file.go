package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// On-disk layout of a FileStore directory:
//
//	<dir>/snapshot.json   materialized State at some journal cut (atomic
//	                      tmp+rename writes; absent until first Compact)
//	<dir>/journal.log     framed records appended since that cut
//
// Journal frame: [uint32 LE payload length][uint32 LE CRC-32 (IEEE) of
// the payload][payload JSON]. Replay stops at the first torn or
// corrupt frame and truncates the file there, so a crash mid-append
// costs at most the unacknowledged tail.
const (
	snapshotName = "snapshot.json"
	journalName  = "journal.log"

	// maxFrame bounds a single record; anything larger is corruption,
	// not data.
	maxFrame = 64 << 20

	// DefaultCompactBytes is the journal size past which an append
	// triggers an automatic Compact.
	DefaultCompactBytes = 8 << 20
)

// snapshotFile wraps the State with the repository's schema/kind stamp
// conventions so a snapshot is self-describing on disk. Open decodes it
// whole; writeSnapshot streams the same document record by record.
type snapshotFile struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	State  *State `json:"state"`
}

// KindSnapshot stamps snapshot.json.
const KindSnapshot = "clean.store.snapshot"

// FileStore is the embedded durable JobStore: a snapshot plus an
// append-only journal in one directory. Safe for concurrent use;
// durable appends share fsyncs (group commit).
type FileStore struct {
	dir string
	log *slog.Logger

	mu      sync.Mutex
	f       *os.File
	state   *State // materialized, kept current on every append
	boot    *State // copy handed to State() callers
	written int64  // bytes appended (journal offset after the last frame)
	synced  int64  // bytes known fsynced
	gen     uint64 // compaction generation; bumped when written/synced reset
	syncing bool
	syncErr error // sticky: a failed fsync poisons the store
	wake    *sync.Cond

	// Durability telemetry, guarded by mu like everything else: the
	// registry itself is single-threaded by design, the store's lock is
	// its synchronization.
	reg *telemetry.Registry
	// recsWritten/recsSynced count journal records (not bytes) appended
	// and covered by an fsync; their difference at fsync completion is
	// the group-commit batch size. Unlike written/synced they are
	// lifetime totals, never reset by compaction.
	recsWritten uint64
	recsSynced  uint64

	// CompactBytes is the auto-compaction threshold (0 disables;
	// Open sets DefaultCompactBytes).
	CompactBytes int64
}

// Option configures a FileStore at Open.
type Option func(*FileStore)

// WithLogger attaches a structured logger for recovery and compaction
// events; nil (the default) keeps the store silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *FileStore) {
		if l != nil {
			s.log = l
		}
	}
}

// Histogram bucket layouts for the store's telemetry. fsync spans
// 50µs (fast NVMe) to 1s (a saturated CI disk); compaction rewrites the
// whole snapshot so its range is wider.
var (
	fsyncBuckets   = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	batchBuckets   = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	compactBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}
)

// Open opens (creating if needed) the store directory, replays the
// snapshot and journal, truncates any torn tail, and returns the store
// ready for appends.
func Open(dir string, opts ...Option) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := newState()
	if data, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("store: decoding %s: %w", snapshotName, err)
		}
		if snap.Kind != KindSnapshot {
			return nil, fmt.Errorf("store: %s kind %q, want %q", snapshotName, snap.Kind, KindSnapshot)
		}
		if snap.State != nil {
			st = snap.State
			st.reindex()
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %w", err)
	}

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	valid, err := replayJournal(f, size, st)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop any torn tail so new frames append after the valid prefix.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}

	s := &FileStore{
		dir:          dir,
		log:          discardLogger(),
		f:            f,
		state:        st,
		written:      valid,
		synced:       valid,
		reg:          telemetry.NewRegistry(),
		CompactBytes: DefaultCompactBytes,
	}
	for _, o := range opts {
		o(s)
	}
	s.wake = sync.NewCond(&s.mu)
	s.boot = s.copyStateLocked()
	s.reg.Gauge("store.journal_bytes").Set(float64(valid))
	s.reg.Gauge("store.recovered_sessions").Set(float64(len(st.Sessions)))
	s.reg.Gauge("store.recovered_jobs").Set(float64(len(st.Jobs)))
	if torn := size - valid; torn > 0 {
		s.reg.Counter("store.torn_tail_bytes").Add(uint64(torn))
		s.log.Warn("store: truncated torn journal tail",
			"dir", dir, "torn_bytes", torn, "valid_bytes", valid)
	}
	s.log.Info("store: opened",
		"dir", dir, "journal_bytes", valid,
		"sessions", len(st.Sessions), "jobs", len(st.Jobs))
	return s, nil
}

// discardLogger is the nil-logging default.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// replayJournal applies every intact frame in f, size bytes long, onto
// st and returns the offset just past the last one. A torn or corrupt
// frame ends the replay (the tail is the crash residue); a record that
// fails to decode or apply past its CRC is a hard error — that is
// corruption in the middle of acknowledged data.
func replayJournal(f *os.File, size int64, st *State) (int64, error) {
	var (
		valid int64
		hdr   [8]byte
	)
	r := io.Reader(f)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, nil // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrame || valid+8+int64(n) > size {
			// A garbage length, or a frame running past the end of the
			// file: a torn tail, whose payload is not worth allocating.
			return valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, nil // corrupt tail
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return 0, fmt.Errorf("store: journal record at offset %d: %w", valid, err)
		}
		if err := st.apply(rec); err != nil {
			return 0, fmt.Errorf("store: journal record at offset %d: %w", valid, err)
		}
		valid += int64(8 + n)
	}
}

// State implements JobStore: the state as of Open.
func (s *FileStore) State() *State { return s.boot }

// copyStateLocked deep-enough-copies the materialized state: record
// slices are copied, the records themselves are value types.
func (s *FileStore) copyStateLocked() *State {
	cp := newState()
	cp.Sessions = append([]SessionRecord(nil), s.state.Sessions...)
	cp.Jobs = append([]JobRecord(nil), s.state.Jobs...)
	cp.NextSession = s.state.NextSession
	cp.NextJob = s.state.NextJob
	cp.reindex()
	return cp
}

// PutSession implements JobStore.
func (s *FileStore) PutSession(rec SessionRecord, durable bool) error {
	return s.append(Record{Session: &rec}, durable)
}

// PutJob implements JobStore.
func (s *FileStore) PutJob(rec JobRecord, durable bool) error {
	return s.append(Record{Job: &rec}, durable)
}

// append frames and writes one record. With durable set it returns only
// once the record is fsynced; concurrent durable appends share a single
// fsync (group commit).
func (s *FileStore) append(rec Record, durable bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: closed")
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	if _, err := s.f.Write(frame); err != nil {
		s.syncErr = fmt.Errorf("store: append: %w", err)
		return s.syncErr
	}
	if err := s.state.apply(rec); err != nil {
		return err
	}
	s.written += int64(len(frame))
	s.recsWritten++
	s.reg.Counter("store.journal_records").Inc()
	s.reg.Counter("store.journal_appended_bytes").Add(uint64(len(frame)))
	s.reg.Gauge("store.journal_bytes").Set(float64(s.written))
	pos := s.written

	if durable {
		if err := s.syncToLocked(pos); err != nil {
			return err
		}
	}
	if s.CompactBytes > 0 && s.written > s.CompactBytes {
		return s.compactLocked()
	}
	return nil
}

// syncToLocked blocks until at least pos bytes are fsynced, joining an
// in-flight fsync when one is already running. Caller holds s.mu.
//
// pos is an offset of the journal as of the caller's append, so it is
// only comparable to written/synced within one compaction generation: a
// compaction resets both counters while s.mu is released around fsyncs,
// and a waiter comparing a pre-compaction pos against the reset counter
// would spin forever. A generation change therefore satisfies the wait —
// compactLocked fsyncs the full journal and the snapshot before
// truncating, so every prior append is already durable.
func (s *FileStore) syncToLocked(pos int64) error {
	gen := s.gen
	for s.synced < pos && s.gen == gen {
		if s.syncErr != nil {
			return s.syncErr
		}
		if s.syncing {
			s.wake.Wait()
			continue
		}
		s.syncing = true
		target := s.written
		targetRecs := s.recsWritten
		f := s.f
		s.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		elapsed := time.Since(start).Seconds()
		s.mu.Lock()
		s.syncing = false
		s.reg.Counter("store.fsyncs").Inc()
		s.reg.Histogram("store.fsync_seconds", fsyncBuckets...).Observe(elapsed)
		if err != nil {
			s.syncErr = fmt.Errorf("store: fsync: %w", err)
			s.reg.Counter("store.fsync_errors").Inc()
		} else {
			// Group commit: every record between the last covered fsync
			// and this one's capture point rode this single fsync. Record
			// counts are lifetime totals, so the batch size stays correct
			// across a compaction's byte-counter reset.
			if targetRecs > s.recsSynced {
				s.reg.Histogram("store.group_commit_records", batchBuckets...).
					Observe(float64(targetRecs - s.recsSynced))
				s.recsSynced = targetRecs
			}
			if s.gen == gen && target > s.synced {
				s.synced = target
			}
		}
		s.wake.Broadcast()
	}
	return s.syncErr
}

// Compact implements JobStore: write the materialized state as a
// snapshot (tmp + rename, fsynced) and truncate the journal.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

func (s *FileStore) compactLocked() error {
	compactStart := time.Now()
	journalBefore := s.written
	// Make sure everything the snapshot will contain is also on disk in
	// the journal first: if the snapshot write fails halfway we still
	// have the complete journal.
	if err := s.syncToLocked(s.written); err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	size, err := writeSnapshot(tmp, s.state)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The snapshot now covers every journal record; drop them. A crash
	// before the truncate leaves snapshot+journal overlapping, which
	// replay tolerates (records are idempotent upserts).
	if err := s.f.Truncate(0); err != nil {
		s.syncErr = fmt.Errorf("store: truncate: %w", err)
		return s.syncErr
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.syncErr = fmt.Errorf("store: %w", err)
		return s.syncErr
	}
	if err := s.f.Sync(); err != nil {
		s.syncErr = fmt.Errorf("store: fsync: %w", err)
		return s.syncErr
	}
	s.written, s.synced = 0, 0
	s.gen++
	// Waiters parked in syncToLocked hold pre-compaction offsets; wake
	// them so they observe the generation change and return.
	s.wake.Broadcast()

	elapsed := time.Since(compactStart).Seconds()
	s.reg.Counter("store.compactions").Inc()
	s.reg.Histogram("store.compact_seconds", compactBuckets...).Observe(elapsed)
	s.reg.Gauge("store.snapshot_bytes").Set(float64(size))
	s.reg.Gauge("store.journal_bytes").Set(0)
	s.log.Info("store: compacted journal into snapshot",
		"dir", s.dir, "journal_bytes_before", journalBefore,
		"snapshot_bytes", size, "seconds", elapsed)
	return nil
}

// Metrics implements JobStore: a snapshot of the store's registry.
func (s *FileStore) Metrics() telemetry.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.Snapshot()
}

// Close implements JobStore: fsync outstanding appends and close the
// journal.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.syncToLocked(s.written)
	if cerr := s.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: close: %w", cerr)
	}
	s.f = nil
	return err
}

// JournalBytes reports the current journal size, for tests and /healthz.
func (s *FileStore) JournalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// writeSnapshot writes st to path as a snapshotFile document in compact
// JSON, fsynced, and returns its size. Records are encoded one at a time
// through a buffered writer, so memory stays at one record however many
// jobs the state holds.
func writeSnapshot(path string, st *State) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"schema":1,"kind":%q,"state":{"sessions":`, KindSnapshot)
	err = encodeList(w, enc, st.Sessions)
	if err == nil {
		w.WriteString(`,"jobs":`)
		err = encodeList(w, enc, st.Jobs)
	}
	if err == nil {
		fmt.Fprintf(w, `,"next_session":%d,"next_job":%d}}`+"\n", st.NextSession, st.NextJob)
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return size, nil
}

// encodeList writes items as a JSON array (null when nil, as
// encoding/json would), one element per Encode call. A write error is
// sticky in w and surfaces at its Flush.
func encodeList[T any](w *bufio.Writer, enc *json.Encoder, items []T) error {
	if items == nil {
		_, err := w.WriteString("null")
		return err
	}
	w.WriteByte('[')
	for i := range items {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(&items[i]); err != nil {
			return err
		}
	}
	return w.WriteByte(']')
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
