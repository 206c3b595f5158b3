package telemetry

import (
	"fmt"
	"math"
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

// Band gates one summary key of a bench file against its checked-in
// baseline value base. A ceiling band lets the run rise to
// max(Factor × base, base + Slack); a Floor band lets it fall to
// min(Factor × base, base − Slack).
type Band struct {
	Key    string
	Factor float64
	Slack  float64
	Floor  bool
}

// Gate compares cur's summary against the baseline BENCH_<experiment>.json
// in dir and returns one violation, naming the key, for each band the run
// breaks. A band whose key is missing from the baseline or from the run
// is a violation too: a renamed or dropped key must not pass unchecked.
// An unreadable or invalid baseline is an error.
func Gate(cur *BenchFile, dir string, bands []Band) ([]string, error) {
	path := filepath.Join(dir, BenchFileName(cur.Experiment))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: baseline unreadable: %w", err)
	}
	base, err := DecodeBenchFile(data)
	if err != nil {
		return nil, fmt.Errorf("telemetry: baseline %s: %w", path, err)
	}
	var violations []string
	for _, b := range bands {
		bv, inBase := base.Summary[b.Key]
		cv, inRun := cur.Summary[b.Key]
		lo, hi := math.Min(b.Factor*bv, bv-b.Slack), math.Max(b.Factor*bv, bv+b.Slack)
		var v string
		switch {
		case !inBase:
			v = "missing from baseline " + path
		case !inRun:
			v = "missing from this run"
		case b.Floor && cv < lo:
			v = fmt.Sprintf("= %g below band %g (base %g, ≥ min(%g×, −%g))", cv, lo, bv, b.Factor, b.Slack)
		case !b.Floor && cv > hi:
			v = fmt.Sprintf("= %g exceeds band %g (base %g, ≤ max(%g×, +%g))", cv, hi, bv, b.Factor, b.Slack)
		default:
			continue
		}
		violations = append(violations, b.Key+" "+v)
	}
	return violations, nil
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
