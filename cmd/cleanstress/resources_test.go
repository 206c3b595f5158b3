package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestServiceBaselineDecodes keeps the checked-in soak baseline honest:
// it must parse under the current schema, name the service experiment,
// and carry every key the baseline gate compares.
func TestServiceBaselineDecodes(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "service-baseline")
	data, err := os.ReadFile(filepath.Join(dir, telemetry.BenchFileName("service")))
	if err != nil {
		t.Fatalf("service baseline missing: %v", err)
	}
	f, err := telemetry.DecodeBenchFile(data)
	if err != nil {
		t.Fatalf("service baseline does not decode: %v", err)
	}
	if f.Experiment != "service" {
		t.Fatalf("baseline names experiment %q, want service", f.Experiment)
	}
	for _, b := range gatedKeys {
		if _, ok := f.Summary[b.Key]; !ok {
			t.Errorf("baseline lacks gated key %s", b.Key)
		}
	}
	if f.Summary["soak.jobs_lost"] != 0 {
		t.Errorf("baseline recorded %g lost jobs; the seed soak must be clean", f.Summary["soak.jobs_lost"])
	}
	if f.Summary["soak.prom_scrape_errors"] != 0 {
		t.Errorf("baseline recorded %g invalid prom scrapes", f.Summary["soak.prom_scrape_errors"])
	}
}

// TestGateAgainstBaseline: the soak's band table through the one gate —
// a run identical to the baseline passes, a value outside its tolerance
// band fails, a missing gated key is itself a violation, and an
// unreadable baseline is an error.
func TestGateAgainstBaseline(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "service-baseline")
	data, err := os.ReadFile(filepath.Join(dir, telemetry.BenchFileName("service")))
	if err != nil {
		t.Fatal(err)
	}
	gate := func(f *telemetry.BenchFile) []string {
		t.Helper()
		v, err := telemetry.Gate(f, dir, gatedKeys)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	same, err := telemetry.DecodeBenchFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if v := gate(same); len(v) != 0 {
		t.Errorf("identical run violates its own baseline: %v", v)
	}

	blown, _ := telemetry.DecodeBenchFile(data)
	blown.Summary["soak.curve.goroutines.p100"] = 100*same.Summary["soak.curve.goroutines.p100"] + 1000
	if v := gate(blown); len(v) != 1 || !strings.Contains(v[0], "soak.curve.goroutines.p100") {
		t.Errorf("goroutine blowup not caught: %v", v)
	}

	missing, _ := telemetry.DecodeBenchFile(data)
	delete(missing.Summary, "soak.e2e_seconds.p99")
	if v := gate(missing); len(v) != 1 || !strings.Contains(v[0], "missing from this run") {
		t.Errorf("dropped instrument not caught: %v", v)
	}

	if _, err := telemetry.Gate(same, t.TempDir(), gatedKeys); err == nil || !strings.Contains(err.Error(), "baseline unreadable") {
		t.Errorf("unreadable baseline not reported: %v", err)
	}
}
