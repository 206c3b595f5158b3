package clean

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	apiv1 "repro/api/v1"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/staticrace"
)

// The api/v1 wire types replaced the private telemetry structs in
// `cleanrun -report` and `cleanvet -json` output. These tests pin that the
// redesign changed no bytes: the golden files were generated by the
// pre-redesign code paths (telemetry.RunReport), and the v1-encoded
// documents must match them exactly. Regenerate with -update only after an
// intentional, schema-version-bumping format change.

// TestV1ReportGolden: `cleanrun -w fft -scale test -detsync -seed 1
// -report` byte-for-byte, with the one nondeterministic field (elapsed)
// zeroed.
func TestV1ReportGolden(t *testing.T) {
	cfg, err := NewConfig(WithDetection(DetectCLEAN), WithSeed(1),
		WithDeterministicSync(true), WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWorkload("fft", "test", true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("run failed: %v", rep.Err)
	}
	rep.Telemetry.ElapsedSeconds = 0
	got, err := apiv1.Encode(rep.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "report_fft.json"), got)

	// The document must also decode strictly as a v1 run report.
	if _, err := apiv1.DecodeRunReport(got); err != nil {
		t.Fatalf("v1 report does not decode: %v", err)
	}
}

// TestV1VetGolden: `cleanvet -litmus waw -json -` byte-for-byte. The
// document gained the unified witness (kind/addr/schedule) when the
// witness representations converged; the golden pins the enriched
// shape.
func TestV1VetGolden(t *testing.T) {
	l := prog.LitmusByName("waw")
	if l == nil {
		t.Fatal("litmus waw missing")
	}
	rep := staticrace.Analyze(l.P)
	got, err := apiv1.Encode(staticrace.V1Report("litmus waw ("+l.Desc+")", l.P, rep))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "vet_waw.json"), got)

	rr, err := apiv1.DecodeRunReport(got)
	if err != nil {
		t.Fatalf("vet report does not decode: %v", err)
	}
	if rr.Witness == nil || rr.Witness.Schedule == nil || len(rr.Witness.Schedule.Steps) == 0 {
		t.Fatal("MustRace vet report lacks the unified witness schedule")
	}
}

// TestV1PredictGolden: `cleanvet -litmus waw -dynamic -json -`
// byte-for-byte — the predicted-race document array, pinned so the
// predict wire shape cannot drift silently.
func TestV1PredictGolden(t *testing.T) {
	l := prog.LitmusByName("waw")
	if l == nil {
		t.Fatal("litmus waw missing")
	}
	res := predict.Run(predict.ProgramTarget(l.P), predict.Options{})
	got, err := apiv1.Encode(res.V1(nil))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "predict_waw.json"), got)

	// Every element must survive a strict same-version decode.
	for i, pr := range res.V1(nil) {
		one, err := apiv1.Encode(&pr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := apiv1.DecodePredictedRace(one); err != nil {
			t.Fatalf("prediction %d does not decode: %v", i, err)
		}
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update after an intentional change): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 output diverged from the pre-redesign document %s\n got: %s\nwant: %s", path, got, want)
	}
}
