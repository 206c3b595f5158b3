package harness

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	clean "repro"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestPerfWritesBenchFile runs the perf experiment at test scale and
// validates the machine-readable output end to end: the file decodes under
// the strict schema check, carries two runs per perf-suite workload, and
// its base-variant counters reproduce the Fig. 7 shared-access frequency
// computed independently from a fresh run.
func TestPerfWritesBenchFile(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	o := testOpts()
	o.JSONDir = dir
	if err := Perf(&buf, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, telemetry.BenchFileName("perf")))
	if err != nil {
		t.Fatal(err)
	}
	bench, err := telemetry.DecodeBenchFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if bench.Experiment != "perf" {
		t.Errorf("experiment = %q, want perf", bench.Experiment)
	}
	if want := 2 * len(perfSuite()); len(bench.Runs) != want {
		t.Fatalf("bench file has %d runs, want %d", len(bench.Runs), want)
	}

	byKey := map[[2]string]*telemetry.RunReport{}
	for i := range bench.Runs {
		r := &bench.Runs[i]
		if r.Outcome != "completed" {
			t.Errorf("%s/%s outcome = %q, want completed", r.Workload, r.Variant, r.Outcome)
		}
		byKey[[2]string{r.Workload, r.Variant}] = r
	}

	// Cross-check two workloads against the Fig. 7 configuration run
	// directly (no detector, seed 0, same yield granularity).
	for _, name := range []string{"fft", "radix"} {
		rep, ok := byKey[[2]string{name, "base"}]
		if !ok {
			t.Fatalf("no base run for %s", name)
		}
		wl, _ := workloads.ByName(name)
		res := runVariant(wl, o.scale(workloads.ScaleNative), workloads.Modified,
			clean.Config{YieldEvery: o.yieldEvery()})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		wantFreq := float64(res.Stats.SharedAccesses()) / float64(res.Stats.Ops) * 1000
		if got := rep.Gauge("machine.shared_per_1k_ops"); math.Abs(got-wantFreq) > 1e-9 {
			t.Errorf("%s shared_per_1k_ops = %v, want %v (Fig. 7)", name, got, wantFreq)
		}
		if got, want := rep.Counter("machine.shared_reads"), res.Stats.SharedReads; got != want {
			t.Errorf("%s shared_reads = %d, want %d", name, got, want)
		}
		if got, want := rep.Counter("machine.ops"), res.Stats.Ops; got != want {
			t.Errorf("%s ops = %d, want %d", name, got, want)
		}
		if _, ok := bench.Summary["perf.shared_per_1k_ops."+name]; !ok {
			t.Errorf("summary missing perf.shared_per_1k_ops.%s", name)
		}
	}

	// The clean-variant runs must carry detector and Kendo counters.
	rep, ok := byKey[[2]string{"fft", "clean"}]
	if !ok {
		t.Fatal("no clean run for fft")
	}
	if rep.Counter("core.accesses") == 0 {
		t.Error("clean run has no core.accesses counter")
	}
	if !rep.DetSync {
		t.Error("clean run not marked detsync")
	}
}
