package clean

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	apiv1 "repro/api/v1"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestTimelineGolden pins the exact Chrome trace-event JSON produced by
// `cleanrun -w fft -scale test -timeline`: timestamps are the machine's
// logical operation counter and event order is deterministic, so the file
// must be byte-identical across runs, platforms, and PRs. Regenerate with
// `go test -run TimelineGolden -update` after an intentional format or
// scheduling change, and eyeball the diff — an unintended change here
// means telemetry perturbed the execution.
func TestTimelineGolden(t *testing.T) {
	tl := NewTimeline()
	rep, err := RunWorkload("fft", "test", true, Config{
		Detection: DetectCLEAN,
		Timeline:  tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("run failed: %v", rep.Err)
	}
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	// The output must be a loadable trace-event document regardless of
	// golden-file state: a JSON object with a traceEvents array whose
	// entries carry the fields Perfetto requires.
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			for _, k := range []string{"name", "cat", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("event %d (ph X) missing %q: %v", i, k, ev)
				}
			}
		case "i":
			for _, k := range []string{"name", "cat", "ts", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("event %d (ph i) missing %q: %v", i, k, ev)
				}
			}
		case "M":
			if name, _ := ev["name"].(string); name != "thread_name" && name != "process_name" {
				t.Fatalf("event %d: unexpected metadata event %q", i, name)
			}
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ph)
		}
	}

	golden := filepath.Join("testdata", "timeline_fft_test.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("timeline output differs from %s (%d vs %d bytes); regenerate with -update if intended",
			golden, len(got), len(want))
	}
}

// TestRunReportGolden pins the RunReport JSON for the same run, minus the
// one nondeterministic field (elapsed_seconds, zeroed before comparison),
// and round-trips it through the strict decoder.
func TestRunReportGolden(t *testing.T) {
	rep, err := RunWorkload("fft", "test", true, Config{
		Detection:         DetectCLEAN,
		DeterministicSync: true,
		Metrics:           NewMetrics(),
	})
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

	decoded, err := DecodeRunReport(got)
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if decoded.Schema != rep.Telemetry.Schema || decoded.OutputHash != rep.Telemetry.OutputHash {
		t.Fatalf("round trip changed the report: %+v", decoded)
	}

	golden := filepath.Join("testdata", "runreport_fft_test.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("run report differs from %s; regenerate with -update if intended", golden)
	}
}
