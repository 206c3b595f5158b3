package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestParallelMatchesSequentialText is the engine's core promise: for the
// experiments whose output is fully deterministic (counters, outcomes,
// frequencies — no wall-clock cells), the parallel run's bytes equal the
// sequential run's.
func TestParallelMatchesSequentialText(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(w *bytes.Buffer, o Options) error
	}{
		{"detect", func(w *bytes.Buffer, o Options) error { return Detect(w, o) }},
		{"determinism", func(w *bytes.Buffer, o Options) error { return Determinism(w, o) }},
		{"fig7", func(w *bytes.Buffer, o Options) error { return Fig7(w, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seq, par bytes.Buffer
			oSeq := testOpts()
			if err := tc.run(&seq, oSeq); err != nil {
				t.Fatal(err)
			}
			oPar := testOpts()
			oPar.Parallel = 4
			if err := tc.run(&par, oPar); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.String(), par.String())
			}
		})
	}
}

// TestParallelPerfJSONMatchesSequential: the perf experiment's table and
// its BENCH_perf.json are byte-identical between sequential and parallel
// runs once each run's elapsed_seconds — the one declared nondeterministic
// field — is zeroed.
func TestParallelPerfJSONMatchesSequential(t *testing.T) {
	run := func(parallel int) (text []byte, bench *telemetry.BenchFile) {
		t.Helper()
		dir := t.TempDir()
		o := testOpts()
		o.Parallel = parallel
		o.JSONDir = dir
		var buf bytes.Buffer
		if err := Perf(&buf, o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, telemetry.BenchFileName("perf")))
		if err != nil {
			t.Fatal(err)
		}
		f, err := telemetry.DecodeBenchFile(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Runs {
			f.Runs[i].ElapsedSeconds = 0
		}
		// Strip the trailing "wrote <tempdir path>" line — the directory
		// name differs per run by construction, not by nondeterminism.
		text = buf.Bytes()
		if i := bytes.LastIndexByte(bytes.TrimRight(text, "\n"), '\n'); i >= 0 {
			text = text[:i+1]
		}
		return text, f
	}
	seqText, seqBench := run(1)
	parText, parBench := run(4)
	if !bytes.Equal(seqText, parText) {
		t.Fatalf("perf table differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqText, parText)
	}
	seqJSON, err := seqBench.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := parBench.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("BENCH_perf.json differs beyond elapsed_seconds:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqJSON, parJSON)
	}
}

// TestBaselineSnapshotsDecode keeps the checked-in bench baselines honest:
// each must decode under the current schema, name its experiment and hold
// every key its gate's bands name, and the hotpath baseline must pin every
// allocs_per_op gauge at zero.
func TestBaselineSnapshotsDecode(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "bench-baseline")
	for exp, bands := range map[string][]telemetry.Band{"hotpath": hotpathBands(), "predict": predictBands} {
		data, err := os.ReadFile(filepath.Join(dir, telemetry.BenchFileName(exp)))
		if err != nil {
			t.Fatalf("baseline snapshot missing: %v", err)
		}
		f, err := telemetry.DecodeBenchFile(data)
		if err != nil {
			t.Fatalf("%s baseline does not decode: %v", exp, err)
		}
		if f.Experiment != exp {
			t.Fatalf("%s baseline names experiment %q", exp, f.Experiment)
		}
		for _, b := range bands {
			if _, ok := f.Summary[b.Key]; !ok {
				t.Errorf("%s baseline lacks gated key %s", exp, b.Key)
			}
		}
		for name, v := range f.Summary {
			if strings.HasSuffix(name, ".allocs_per_op") && v != 0 {
				t.Errorf("baseline %s = %v, want 0", name, v)
			}
		}
	}
}
