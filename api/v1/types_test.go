package v1

import (
	"strings"
	"testing"
)

func TestRunReportRoundTrip(t *testing.T) {
	r := NewRunReport()
	r.Workload = "fft"
	r.Scale = "test"
	r.Detector = DetectionCLEAN
	r.Seed = 3
	r.DetSync = true
	r.Outcome = OutcomeCompleted
	r.OutputHash = "0x00000000deadbeef"
	r.Metrics = MetricsSnapshot{Counters: map[string]uint64{"machine.shared_reads": 7}}
	data, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != r.Workload || back.Seed != r.Seed || !back.DetSync ||
		back.Metrics.Counters["machine.shared_reads"] != 7 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestDecodeRejectsWrongSchemaAndUnknownFields(t *testing.T) {
	if _, err := DecodeRunReport([]byte(`{"schema":2,"kind":"clean.run-report","seed":0,"detsync":false,"outcome":"completed","elapsed_seconds":0,"metrics":{}}`)); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("want schema-version error, got %v", err)
	}
	if _, err := DecodeRunReport([]byte(`{"schema":1,"kind":"clean.run-report","seed":0,"detsync":false,"outcome":"completed","elapsed_seconds":0,"metrics":{},"surprise":1}`)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
	if _, err := DecodeRunReport([]byte(`{"schema":1,"kind":"clean.bench","seed":0,"detsync":false,"outcome":"completed","elapsed_seconds":0,"metrics":{}}`)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("want kind error, got %v", err)
	}
}

func TestDecodeStrictRejectsTrailingData(t *testing.T) {
	doc, err := Encode(&CreateSessionRequest{Schema: SchemaVersion, Config: SessionConfig{Detection: DetectionCLEAN}})
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimRight(string(doc), "\n")
	for _, tail := range []string{"", "\n", " \r\n\t \n"} {
		var v CreateSessionRequest
		if err := DecodeStrict([]byte(body+tail), &v); err != nil || v.Config.Detection != DetectionCLEAN {
			t.Errorf("trailing %q: %v, want the document accepted", tail, err)
		}
	}
	for _, tail := range []string{"{}", "\n{}", " null", "x", "]", "\n" + body, "\x00"} {
		var v CreateSessionRequest
		if err := DecodeStrict([]byte(body+tail), &v); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("trailing %q: %v, want a trailing-data error", tail, err)
		}
	}
}

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"none", JobSpec{}, false},
		{"two sources", JobSpec{Litmus: "waw", Program: "region 8\nlocks 0\nthread\n"}, false},
		{"litmus", JobSpec{Litmus: "waw"}, true},
		{"program", JobSpec{Program: "region 8\nlocks 0\nthread\n  write 0 8\n"}, true},
		{"workload", JobSpec{Workload: &WorkloadSpec{Name: "fft", Scale: "test", Variant: "modified"}}, true},
		{"workload no name", JobSpec{Workload: &WorkloadSpec{Scale: "test"}}, false},
		{"workload with schedule", JobSpec{Workload: &WorkloadSpec{Name: "fft"}, Schedule: []int{0}}, false},
		{"schedule", JobSpec{Litmus: "waw", Schedule: []int{0, 1}}, true},
		{"schedule and seeds", JobSpec{Litmus: "waw", Schedule: []int{0}, Seeds: []int64{1}}, false},
		{"seeds", JobSpec{Litmus: "waw", Seeds: []int64{1, 2, 3}}, true},
		{"gosource", JobSpec{GoSource: "package main\nfunc main() {}\n"}, true},
		{"gosource and litmus", JobSpec{GoSource: "package main", Litmus: "waw"}, false},
		{"gosource oversized", JobSpec{GoSource: strings.Repeat("/", MaxGoSourceBytes+1)}, false},
		{"gosource with schedule", JobSpec{GoSource: "package main\nfunc main() {}\n", Schedule: []int{0}}, true},
		{"deadline", JobSpec{Litmus: "waw", DeadlineSeconds: 2.5}, true},
		{"negative deadline", JobSpec{Litmus: "waw", DeadlineSeconds: -1}, false},
		{"job maxsteps", JobSpec{Litmus: "waw", MaxSteps: 10_000}, true},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSubmitRequestIdempotencyKeyRoundTrip: the dedup key survives the
// wire, and strict decoding still rejects unknown fields.
func TestSubmitRequestIdempotencyKeyRoundTrip(t *testing.T) {
	req := SubmitJobRequest{Schema: SchemaVersion, Job: JobSpec{Litmus: "waw"}, IdempotencyKey: "k-123"}
	data, err := Encode(&req)
	if err != nil {
		t.Fatal(err)
	}
	var back SubmitJobRequest
	if err := DecodeStrict(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.IdempotencyKey != "k-123" {
		t.Errorf("idempotency key %q, want k-123", back.IdempotencyKey)
	}
}

// TestChaosRoundTrip pins the chaos document shapes.
func TestChaosRoundTrip(t *testing.T) {
	req := ChaosRequest{Schema: SchemaVersion, WorkerPanics: 2, StoreErrors: 1, StallSeconds: 1.5}
	data, err := Encode(&req)
	if err != nil {
		t.Fatal(err)
	}
	var back ChaosRequest
	if err := DecodeStrict(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Errorf("round trip %+v, want %+v", back, req)
	}
	ack := Chaos{Schema: SchemaVersion, Kind: KindChaos, WorkerPanics: 2}
	if err := CheckHeader(ack.Schema, ack.Kind, KindChaos); err != nil {
		t.Error(err)
	}
}

// TestPredictedRaceRoundTrip pins the predicted-race document: schema
// stamp, strict decode, and the nested witness schedule.
func TestPredictedRaceRoundTrip(t *testing.T) {
	p := NewPredictedRace()
	p.Race = "WAW"
	p.First = PredictedAccess{Thread: 0, Index: 2, Addr: 8, Size: 8, Write: true}
	p.Second = PredictedAccess{Thread: 1, Index: 0, Addr: 8, Size: 8, Write: true, Source: "x.go:4:2"}
	p.Schedule = &WitnessSchedule{Steps: []ScheduleStep{{Thread: 0, Ops: 3}, {Thread: 1, Ops: 1}}}
	p.Certified = true
	p.Witness = &RaceWitness{Kind: "WAW", Addr: 8, Size: 8, TID: 2, PrevTID: 1, Detector: "clean", Schedule: p.Schedule}
	p.DeterminismHash = "0x00000000deadbeef"
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePredictedRace(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Race != "WAW" || !back.Certified || back.Second.Source != "x.go:4:2" ||
		len(back.Schedule.Steps) != 2 || back.Schedule.Steps[1].Ops != 1 ||
		back.Witness == nil || back.Witness.Schedule == nil {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// Header and unknown-field strictness.
	if _, err := DecodePredictedRace([]byte(`{"schema":1,"kind":"clean.run-report","race":"WAW","first":{"thread":0,"index":0,"addr":0,"size":1,"write":true},"second":{"thread":1,"index":0,"addr":0,"size":1,"write":true},"certified":true}`)); err == nil {
		t.Error("wrong kind accepted")
	}
	if _, err := DecodePredictedRace([]byte(`{"schema":1,"kind":"clean.v1.predicted-race","race":"WAW","first":{"thread":0,"index":0,"addr":0,"size":1,"write":true},"second":{"thread":1,"index":0,"addr":0,"size":1,"write":true},"certified":true,"surprise":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestJobSpecDetectionValidate covers the per-job detection override:
// known modes pass, unknown ones fail, and predict composes only with
// program-backed, unscheduled jobs.
func TestJobSpecDetectionValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"predict litmus", JobSpec{Litmus: "waw", Detection: DetectionPredict}, true},
		{"predict gosource", JobSpec{GoSource: "package main\nfunc main() {}\n", Detection: DetectionPredict}, true},
		{"predict seeds", JobSpec{Litmus: "waw", Seeds: []int64{1, 2}, Detection: DetectionPredict}, true},
		{"clean override", JobSpec{Litmus: "waw", Detection: DetectionCLEAN}, true},
		{"none override", JobSpec{Litmus: "waw", Detection: DetectionNone}, true},
		{"unknown detection", JobSpec{Litmus: "waw", Detection: "quantum"}, false},
		{"predict workload", JobSpec{Workload: &WorkloadSpec{Name: "fft"}, Detection: DetectionPredict}, false},
		{"predict schedule", JobSpec{Litmus: "waw", Schedule: []int{0, 1}, Detection: DetectionPredict}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
