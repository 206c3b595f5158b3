// Package harness drives the paper's evaluation (§6): one runner per
// table and figure, each printing the same rows/series the paper reports.
// cmd/cleanbench is a thin CLI over this package, and the repository-root
// benchmarks wrap the same runners in testing.B.
package harness

import (
	"fmt"
	"io"
	"time"

	clean "repro"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the input scale; runners default it per the paper
	// (native for software, simsmall for hardware) when zero-valued
	// via their own logic, so set it only to override.
	Scale workloads.Scale
	// ScaleSet reports whether Scale was explicitly chosen.
	ScaleSet bool
	// Reps is the number of repetitions per measurement (the paper uses
	// 10 for performance and 100 for the detection/determinism
	// experiments; defaults here are smaller for iteration speed).
	Reps int
	// YieldEvery coarsens the machine's scheduling granularity for the
	// wall-clock experiments (default 32); semantics are unaffected.
	YieldEvery int
	// Verbose adds per-run detail.
	Verbose bool
	// ArtifactDir, if non-empty, receives diagnostic dump files for
	// resilience-experiment violations (CI uploads them on failure).
	ArtifactDir string
	// JSONDir, if non-empty, makes experiments with machine-readable
	// results write a schema-versioned BENCH_<experiment>.json there
	// (telemetry.BenchFile); CI uploads them as the performance
	// trajectory.
	JSONDir string
	// Parallel is the number of worker goroutines used to fan the
	// experiments' independent runs (repetitions, workloads, detector
	// configurations) across cores; 0 or 1 keeps the sequential loops.
	// Results are slotted by index and aggregated in sequential order, so
	// all deterministic output (counters, hashes, outcomes, tables) is
	// byte-identical to a sequential run.
	Parallel int
	// BaselineDir, if non-empty, makes the hotpath experiment gate its
	// fresh measurements against the BENCH_hotpath.json checked in there:
	// any allocs_per_op above baseline or ns_per_op beyond the tolerance
	// band fails the experiment (cleanbench -baseline).
	BaselineDir string
}

func (o Options) reps(def int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	return def
}

func (o Options) scale(def workloads.Scale) workloads.Scale {
	if o.ScaleSet {
		return o.Scale
	}
	return def
}

func (o Options) yieldEvery() int {
	if o.YieldEvery > 0 {
		return o.YieldEvery
	}
	return 32
}

func (o Options) workers() int {
	if o.Parallel > 1 {
		return o.Parallel
	}
	return 1
}

// runVariant runs one workload variant through clean.RunWorkload, the
// run body every whole-workload run in the repository shares. A zero
// cfg.MaxSteps becomes DefaultMaxSteps, so a buggy workload trips the
// livelock watchdog instead of hanging cleanbench. Harness configurations
// are code-authored: one the facade rejects is a bug, and panics in this
// package's fatal-error style.
func runVariant(wl workloads.Workload, scale workloads.Scale, variant workloads.Variant, cfg clean.Config) *clean.Report {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	rep, err := clean.RunWorkload(wl.Name, scale.String(), variant == workloads.Modified, cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", wl.Name, err))
	}
	return rep
}

// meanSeconds runs fn for reps repetitions — fanned across workers
// goroutines when workers > 1 — and returns the mean and 95% CI of the
// elapsed seconds. fn must be safe to call concurrently (harness run
// closures are: each builds a fresh machine).
func meanSeconds(workers, reps int, fn func(rep int) time.Duration) (mean, ci float64) {
	ds := ForEachIndexed(workers, reps, fn)
	xs := make([]float64, 0, reps)
	for _, d := range ds {
		xs = append(xs, d.Seconds())
	}
	return stats.Mean(xs), stats.CI95(xs)
}

// perfSuite returns the benchmarks used for performance experiments: all
// workloads with a modified (race-free) variant, per §6.1.
func perfSuite() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range workloads.All() {
		if w.HasModified {
			out = append(out, w)
		}
	}
	return out
}

// hwSuite is perfSuite minus facesim, which §6.3.1 omits from simulation.
func hwSuite() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range perfSuite() {
		if w.Name != "facesim" {
			out = append(out, w)
		}
	}
	return out
}

// recordTrace runs a workload once with a trace recorder attached.
func recordTrace(w workloads.Workload, scale workloads.Scale, seed int64) *trace.Trace {
	rec := &trace.Recorder{}
	r := runVariant(w, scale, workloads.Modified, clean.Config{Seed: seed, YieldEvery: 16, Tracer: rec})
	if r.Err != nil {
		panic(fmt.Sprintf("harness: tracing %s failed: %v", w.Name, r.Err))
	}
	return &rec.Trace
}

// Experiments maps experiment names to runners, in paper order.
func Experiments() []struct {
	Name string
	Desc string
	Run  func(w io.Writer, o Options) error
} {
	return []struct {
		Name string
		Desc string
		Run  func(w io.Writer, o Options) error
	}{
		{"detect", "§6.2.2: racy benchmarks always raise a race exception", Detect},
		{"determinism", "§6.2.2: race-free runs are exception-free and deterministic", Determinism},
		{"fig6", "Fig. 6: software-only CLEAN slowdown breakdown", Fig6},
		{"fig7", "Fig. 7: frequency of shared accesses", Fig7},
		{"fig8", "Fig. 8: impact of the multi-byte (vectorization) optimization", Fig8},
		{"table1", "Table 1: clock rollover frequency and cost", Table1},
		{"fig9", "Fig. 9: hardware-supported race detection slowdown", Fig9},
		{"fig10", "Fig. 10: breakdown of memory accesses", Fig10},
		{"fig11", "Fig. 11: 1-byte and 4-byte epoch alternatives", Fig11},
		{"perf", "telemetry: per-run metrics reports, Fig. 7 frequencies in BENCH_perf.json", Perf},
		{"hotpath", "ns/op + allocs/op of the shadow fast lane and per-access check, BENCH_hotpath.json", Hotpath},
		{"ablation", "§7 claim: CLEAN vs FastTrack vs TSan-lite software detectors", Ablation},
		{"static", "static verdicts vs CLEAN/FastTrack/oracle on fuzzed programs", Static},
		{"predict", "predictive detection: race recall + step cost vs exploration, BENCH_predict.json", Predict},
		{"resilience", "fault-injection matrix: graceful degradation + deterministic replay of failures", Resilience},
	}
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, o Options) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "==== %s — %s ====\n", e.Name, e.Desc)
		if err := e.Run(w, o); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
