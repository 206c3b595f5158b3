package v1

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to every decoder of this package that
// untrusted input reaches: DecodeRunReport, DecodePredictedRace, and
// DecodeStrict into the three request bodies cleand's handlers decode
// (a SubmitJobRequest then passes Job.Validate, as in the handler). No
// input may panic, every accepted value must encode, decode and encode
// again to identical bytes, and no accepted input is still accepted with a
// second value after it.
func FuzzDecode(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// An array of documents (the predict golden) also seeds each
		// element, so the single-document decoders see accepted input.
		var elems []json.RawMessage
		if json.Unmarshal(data, &elems) == nil {
			for _, e := range elems {
				f.Add([]byte(e))
			}
		}
	}
	for _, req := range seedRequests() {
		data, err := Encode(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Trailing data: a second value, garbage, and whitespace only.
		for _, tail := range []string{"{}", "x", "\n \t"} {
			f.Add(append(append([]byte(nil), data...), tail...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRunReport(data); err == nil {
			roundTrip(t, r, func(b []byte) (interface{}, error) { return DecodeRunReport(b) })
		}
		if p, err := DecodePredictedRace(data); err == nil {
			roundTrip(t, p, func(b []byte) (interface{}, error) { return DecodePredictedRace(b) })
		}
		var cs CreateSessionRequest
		if DecodeStrict(data, &cs) == nil {
			roundTrip(t, &cs, func(b []byte) (interface{}, error) {
				var v CreateSessionRequest
				return &v, DecodeStrict(b, &v)
			})
			var again CreateSessionRequest
			if DecodeStrict(append(append([]byte(nil), data...), "{}"...), &again) == nil {
				t.Fatalf("accepted a second JSON value after %q", data)
			}
		}
		var sj SubmitJobRequest
		if DecodeStrict(data, &sj) == nil && sj.Job.Validate() == nil {
			roundTrip(t, &sj, func(b []byte) (interface{}, error) {
				var v SubmitJobRequest
				return &v, DecodeStrict(b, &v)
			})
		}
		var ch ChaosRequest
		if DecodeStrict(data, &ch) == nil {
			roundTrip(t, &ch, func(b []byte) (interface{}, error) {
				var v ChaosRequest
				return &v, DecodeStrict(b, &v)
			})
		}
	})
}

// roundTrip checks that an accepted value encodes, decodes again through
// decode, and re-encodes to identical bytes.
func roundTrip(t *testing.T, v interface{}, decode func([]byte) (interface{}, error)) {
	t.Helper()
	first, err := Encode(v)
	if err != nil {
		t.Fatalf("accepted %T does not encode: %v", v, err)
	}
	back, err := decode(first)
	if err != nil {
		t.Fatalf("encoded %T does not decode: %v\n%s", v, err, first)
	}
	second, err := Encode(back)
	if err != nil {
		t.Fatalf("decoded %T does not encode: %v", back, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%T round trip changed the bytes:\n%s\nvs\n%s", v, first, second)
	}
}

// seedRequests are request bodies of the shapes the service tests send.
func seedRequests() []interface{} {
	wl := &WorkloadSpec{Name: "fft", Scale: "test", Variant: "modified"}
	jobs := []JobSpec{
		{Litmus: "waw"},
		{Litmus: "locked-counter", Seeds: []int64{1, 2, 3}},
		{Litmus: "locked-counter", Detection: DetectionFastTrack},
		{Litmus: "raw-war", Schedule: []int{0, 1}},
		{Litmus: "waw", DeadlineSeconds: 0.05},
		{Litmus: "waw", Detection: DetectionPredict},
		{Program: "region 8\nlocks 0\nthread\n  write 0 8\nthread\n  write 0 8\n"},
		{Workload: wl, Seeds: []int64{0, 1}, MaxSteps: 1 << 20},
		{GoSource: "package main\n\nvar x int\n\nfunc main() {\n\tgo func() { x = 1 }()\n\tx = 2\n}\n"},
	}
	reqs := []interface{}{
		&CreateSessionRequest{Schema: SchemaVersion, Config: SessionConfig{Detection: DetectionCLEAN, Seed: 11}},
		&CreateSessionRequest{Schema: SchemaVersion, Config: SessionConfig{
			Detection: DetectionCLEAN, Seed: 1, DetSync: true, YieldEvery: 4, MaxSteps: 5000,
			ClockBits: 10, TIDBits: 8, DisableMultibyteOpt: true, Metrics: true,
		}},
		&ChaosRequest{Schema: SchemaVersion, WorkerPanics: 1, StoreErrors: 2, StallSeconds: 0.5},
	}
	for i, j := range jobs {
		req := &SubmitJobRequest{Schema: SchemaVersion, Job: j}
		if i == 0 {
			req.IdempotencyKey = "k-retry"
		}
		reqs = append(reqs, req)
	}
	return reqs
}
