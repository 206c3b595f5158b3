package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func testOpts() Options {
	return Options{Scale: workloads.ScaleTest, ScaleSet: true, Reps: 2, YieldEvery: 8}
}

// TestExperimentsRunClean executes every experiment at test scale, checks
// that none reports a violation of the paper's claims, and pins every
// output that carries no wall-clock value against the golden files in
// testdata (regenerate with -update after an intentional change).
func TestExperimentsRunClean(t *testing.T) {
	o := testOpts()
	o.JSONDir = t.TempDir()
	outputs := map[string]string{}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, o); err != nil {
				t.Fatalf("%s: %v\noutput:\n%s", e.Name, err, buf.String())
			}
			out := buf.String()
			if strings.Contains(out, "WARNING") {
				t.Errorf("%s reported a violation:\n%s", e.Name, out)
			}
			if len(strings.TrimSpace(out)) == 0 {
				t.Errorf("%s produced no output", e.Name)
			}
			outputs[e.Name] = out
		})
	}
	if t.Failed() {
		return
	}
	checkGolden(t, "experiments.golden", deterministicOutputs(outputs))

	data, err := os.ReadFile(filepath.Join(o.JSONDir, telemetry.BenchFileName("perf")))
	if err != nil {
		t.Fatal(err)
	}
	bench, err := telemetry.DecodeBenchFile(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bench.Runs {
		bench.Runs[i].ElapsedSeconds = 0
	}
	data, err = bench.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "BENCH_perf.golden.json", data)
}

// deterministicOutputs renders the experiment outputs that hold no
// wall-clock value: the Fig. 7, Detect, Determinism and Resilience
// outputs whole, and the counter-derived columns of Fig. 8 (≥4B %,
// same-epoch %) and Ablation (FT meta ×CLEAN).
func deterministicOutputs(outputs map[string]string) []byte {
	var b strings.Builder
	for _, name := range []string{"fig7", "detect", "determinism", "resilience"} {
		b.WriteString("==== " + name + " ====\n" + outputs[name])
	}
	columns := func(name, header string, cols ...int) {
		b.WriteString("==== " + name + " ====\n" + header + "\n")
		lines := strings.Split(strings.TrimSpace(outputs[name]), "\n")
		for _, l := range lines[2:] { // past the header and rule
			f := strings.Fields(l)
			if f[0] == "average" {
				continue
			}
			row := []string{f[0]}
			for _, c := range cols {
				row = append(row, f[c])
			}
			b.WriteString(strings.Join(row, "  ") + "\n")
		}
	}
	columns("fig8", "benchmark  ≥4B %  same-epoch %", 4, 5)
	columns("ablation", "benchmark  FT meta ×CLEAN", 4)
	return []byte(b.String())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s; regenerate with -update only after an intentional change\n--- got ---\n%s", path, got)
	}
}

func TestExperimentRegistryNames(t *testing.T) {
	want := []string{"detect", "determinism", "fig6", "fig7", "fig8", "table1", "fig9", "fig10", "fig11", "perf", "hotpath", "ablation", "static", "predict", "resilience"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.Name, want[i])
		}
	}
}

// TestDetectTableShowsAllRacy asserts the detection table covers every
// racy benchmark and that all runs end in exceptions.
func TestDetectTableShowsAllRacy(t *testing.T) {
	var buf bytes.Buffer
	if err := Detect(&buf, testOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range workloads.RacyNames() {
		if !strings.Contains(out, name) {
			t.Errorf("detect table missing %s", name)
		}
	}
}

// TestFig9SlowdownsPositive checks the hardware experiment's basic shape:
// detection always costs something.
func TestFig9SlowdownsPositive(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9(&buf, testOpts()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("fig9 output too short:\n%s", buf.String())
	}
	for _, l := range lines[2:] {
		fields := strings.Fields(l)
		if len(fields) < 2 {
			continue
		}
		if strings.HasPrefix(fields[1], "-") {
			t.Errorf("negative slowdown in %q", l)
		}
	}
}

// TestHwSuiteOmitsFacesim mirrors §6.3.1.
func TestHwSuiteOmitsFacesim(t *testing.T) {
	for _, w := range hwSuite() {
		if w.Name == "facesim" {
			t.Fatal("facesim must be omitted from the hardware suite")
		}
	}
	if len(hwSuite()) != len(perfSuite())-1 {
		t.Fatalf("hwSuite size %d, want perfSuite-1 = %d", len(hwSuite()), len(perfSuite())-1)
	}
}

// TestPerfSuiteOmitsCanneal: performance experiments use the modified
// (race-free) suite, which canneal has no membership in (§6.1).
func TestPerfSuiteOmitsCanneal(t *testing.T) {
	for _, w := range perfSuite() {
		if w.Name == "canneal" {
			t.Fatal("canneal has no modified variant and must not be in the perf suite")
		}
	}
	if len(perfSuite()) != 25 {
		t.Fatalf("perfSuite size %d, want 25", len(perfSuite()))
	}
}
