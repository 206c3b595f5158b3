package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	apiv1 "repro/api/v1"
)

// RunReport is the machine-readable record of one run — identity,
// outcome and the registry snapshot — in its one schema-versioned form,
// the api/v1 wire type. Snapshot and HistogramSnapshot are likewise the
// wire types, so a registry snapshot drops into a report unconverted.
type (
	RunReport         = apiv1.RunReport
	Snapshot          = apiv1.MetricsSnapshot
	HistogramSnapshot = apiv1.HistogramSnapshot
)

// KindBenchFile stamps a BenchFile's Kind field, a second
// self-description guard alongside the api/v1 schema version.
const KindBenchFile = "clean.bench"

// FormatHash renders an output hash for RunReport.OutputHash.
func FormatHash(h uint64) string { return fmt.Sprintf("%#016x", h) }

// BenchFile is the on-disk format of BENCH_<experiment>.json: one
// experiment's machine-readable results, a list of RunReports plus
// experiment-level summary gauges. CI uploads these as artifacts, seeding
// the cross-PR performance trajectory.
type BenchFile struct {
	Schema     int    `json:"schema"`
	Kind       string `json:"kind"`
	Experiment string `json:"experiment"`
	// Summary holds experiment-level scalars (means, slowdowns) keyed by
	// dotted names, mirroring the metric naming convention.
	Summary map[string]float64 `json:"summary,omitempty"`
	Runs    []RunReport        `json:"runs"`
}

// NewBenchFile returns an empty bench file for the named experiment.
func NewBenchFile(experiment string) *BenchFile {
	return &BenchFile{Schema: apiv1.SchemaVersion, Kind: KindBenchFile, Experiment: experiment}
}

// AddSummary records an experiment-level scalar.
func (f *BenchFile) AddSummary(name string, v float64) {
	if f.Summary == nil {
		f.Summary = make(map[string]float64)
	}
	f.Summary[name] = v
}

// Encode renders the bench file as deterministic, indented JSON.
func (f *BenchFile) Encode() ([]byte, error) {
	return apiv1.Encode(f)
}

// DecodeBenchFile parses and validates an encoded bench file: unknown
// fields, a wrong kind or a schema-version mismatch, in the file or in
// any of its runs, are errors.
func DecodeBenchFile(data []byte) (*BenchFile, error) {
	var f BenchFile
	if err := apiv1.DecodeStrict(data, &f); err != nil {
		return nil, fmt.Errorf("telemetry: decoding bench file: %w", err)
	}
	if err := apiv1.CheckHeader(f.Schema, f.Kind, KindBenchFile); err != nil {
		return nil, err
	}
	for i := range f.Runs {
		if err := apiv1.CheckHeader(f.Runs[i].Schema, f.Runs[i].Kind, apiv1.KindRunReport); err != nil {
			return nil, fmt.Errorf("telemetry: run %d: %w", i, err)
		}
	}
	return &f, nil
}

// BenchFileName returns the conventional file name for an experiment's
// bench file: BENCH_<experiment>.json.
func BenchFileName(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// WriteFile encodes the bench file into dir under its conventional name
// and returns the written path.
func (f *BenchFile) WriteFile(dir string) (string, error) {
	data, err := f.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, BenchFileName(f.Experiment))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// SortRuns orders the contained runs by (workload, variant, seed) so a
// bench file's content does not depend on collection order.
func (f *BenchFile) SortRuns() {
	sort.SliceStable(f.Runs, func(i, j int) bool {
		a, b := &f.Runs[i], &f.Runs[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		return a.Seed < b.Seed
	})
}
