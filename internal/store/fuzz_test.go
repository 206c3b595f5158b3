package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	apiv1 "repro/api/v1"
)

// fuzzRecords are the valid frames a fuzzed journal starts with.
var fuzzRecords = []Record{
	{Session: &SessionRecord{ID: "s-1", State: "active"}},
	{Job: &JobRecord{ID: "j-1", Session: "s-1", Spec: apiv1.JobSpec{Litmus: "waw"}, State: apiv1.JobQueued}},
	{Job: &JobRecord{ID: "j-1", Session: "s-1", State: apiv1.JobDone,
		Runs: []apiv1.RunResult{{Seed: 2, Outcome: apiv1.OutcomeCompleted, DeterminismHash: "0x1"}}}},
}

// frame encodes payload as one journal frame with the given CRC.
func frame(payload []byte, sum uint32) []byte {
	b := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], sum)
	return append(b, payload...)
}

// refReplay is the journal rule stated over bytes: frames apply in order
// until the first one whose header is torn, whose length is zero, over
// maxFrame or past the end, or whose CRC fails. ok is false when a frame
// before that point holds a record that does not decode or apply, which
// Open must reject.
func refReplay(data []byte) (st *State, valid int, ok bool) {
	st = newState()
	for len(data)-valid >= 8 {
		n := int(binary.LittleEndian.Uint32(data[valid:]))
		sum := binary.LittleEndian.Uint32(data[valid+4:])
		if n == 0 || n > maxFrame || n > len(data)-valid-8 {
			break
		}
		payload := data[valid+8 : valid+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil || st.apply(rec) != nil {
			return nil, 0, false
		}
		valid += 8 + n
	}
	return st, valid, true
}

// FuzzJournal writes a valid journal prefix and then arbitrary bytes as
// journal.log, raw or as a torn, bit-flipped or over-long frame, and
// opens the store. Open must never panic. When it succeeds, its state is
// exactly the replay of the frames before the first bad length or CRC,
// the file is cut back to them, and a record appended afterwards is the
// only thing a reopen adds: no frame past the cut, such as a record whose
// CRC failed, comes back. A frame length past the end of the file is a
// torn tail, and its payload is never allocated.
func FuzzJournal(f *testing.F) {
	for _, seed := range []struct {
		prefix, mode uint8
		tail         string
		arg          uint32
	}{
		{3, 0, "", 0},
		{1, 0, "\x42\x00\x00", 0},
		{2, 1, `{"job":{"id":"j-7","state":"queued"}}`, 0},
		{2, 1, `{"neither":1}`, 0},
		{2, 1, `not json`, 0},
		{3, 2, `{"session":{"id":"s-9"}}`, 77},
		{1, 3, `{"job":{"id":"j-2"}}`, 12},
		{0, 4, "short", maxFrame - 6},
		{3, 4, `{"job":{"id":"j-3"}}`, 1},
	} {
		f.Add(seed.prefix, seed.mode, []byte(seed.tail), seed.arg)
	}

	f.Fuzz(func(t *testing.T, prefix, mode uint8, tail []byte, arg uint32) {
		var data []byte
		for _, rec := range fuzzRecords[:int(prefix)%(len(fuzzRecords)+1)] {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, frame(payload, crc32.ChecksumIEEE(payload))...)
		}
		fr := frame(tail, crc32.ChecksumIEEE(tail))
		switch mode % 5 {
		case 0: // raw bytes
			fr = tail
		case 1: // an intact frame around arbitrary bytes
		case 2: // one bit flipped anywhere in the frame
			fr[int(arg/8)%len(fr)] ^= 1 << (arg % 8)
		case 3: // torn: the frame cut short
			fr = fr[:int(arg)%len(fr)]
		case 4: // over-long: the length field runs past the end
			binary.LittleEndian.PutUint32(fr[0:4], uint32(len(tail))+1+arg%maxFrame)
		}
		data = append(data, fr...)

		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		runtime.ReadMemStats(&after)
		want, valid, ok := refReplay(data)
		if !ok {
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a journal with an undecodable record before its first bad frame")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+16*uint64(len(data)) {
			t.Errorf("Open of a %d-byte journal allocated %d bytes", len(data), grew)
		}
		sameState(t, "Open", s.State(), want)
		if size := fileSize(t, path); size != int64(valid) {
			t.Errorf("journal is %d bytes after Open, want the %d valid ones", size, valid)
		}

		extra := JobRecord{ID: "j-100", Session: "s-1", State: apiv1.JobQueued}
		if err := s.PutJob(extra, true); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := want.apply(Record{Job: &extra}); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		sameState(t, "reopen", r.State(), want)
	})
}

// sameState fails t unless got holds exactly want's sessions, jobs and id
// counters.
func sameState(t *testing.T, when string, got, want *State) {
	t.Helper()
	if !reflect.DeepEqual(got.Sessions, want.Sessions) || !reflect.DeepEqual(got.Jobs, want.Jobs) ||
		got.NextSession != want.NextSession || got.NextJob != want.NextJob {
		t.Errorf("%s: state %+v, want %+v", when, got, want)
	}
}
