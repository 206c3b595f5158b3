package harness

import (
	"fmt"
	"io"

	clean "repro"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Perf is the telemetry experiment: every performance-suite workload runs
// twice — without detection (the Fig. 7 baseline) and under CLEAN with
// deterministic synchronization — with a metrics registry attached, and
// each run's RunReport, its variant relabeled "base" or "clean", lands in
// the bench file. A CLEAN run's report also carries the detector's shadow
// footprint (Report.Footprint) as the core.shadow_* gauges. With
// Options.JSONDir set, the collected reports are written to
// BENCH_perf.json; the baseline runs use exactly the Fig. 7
// configuration, so the machine.shared_per_1k_ops gauge in the file
// reproduces that figure's shared-access frequencies.
func Perf(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleNative)
	ye := o.yieldEvery()
	bench := telemetry.NewBenchFile("perf")
	tb := stats.NewTable("benchmark", "variant", "shared/1k ops", "ops", "sync ops", "kendo waits", "outcome")

	// Every (workload, variant) pair is one independent run: flatten them
	// into a job list, fan the jobs across the worker pool, and aggregate
	// in job order — the table and the (sorted) bench file come out
	// byte-identical to a sequential run, except for the per-run
	// ElapsedSeconds wall-clock field.
	type job struct {
		wl    workloads.Workload
		label string
		cfg   clean.Config
	}
	var jobs []job
	for _, wl := range perfSuite() {
		// The Fig. 7 configuration: no detector, nondeterministic
		// scheduling, seed 0.
		jobs = append(jobs, job{wl: wl, label: "base", cfg: clean.Config{YieldEvery: ye}})
		// CLEAN + Kendo: the paper's full software system, for the
		// detector and wait-time counters.
		jobs = append(jobs, job{wl: wl, label: "clean", cfg: clean.Config{
			DeterministicSync: true,
			YieldEvery:        ye,
			Detection:         clean.DetectCLEAN,
		}})
	}
	outs := ForEachIndexed(o.workers(), len(jobs), func(i int) *clean.Report {
		cfg := jobs[i].cfg
		cfg.Metrics = clean.NewMetrics()
		return runVariant(jobs[i].wl, scale, workloads.Modified, cfg)
	})

	var freqs []float64
	for i, j := range jobs {
		r := outs[i]
		if r.Err != nil {
			return fmt.Errorf("perf: %s/%s: %v", j.wl.Name, j.label, r.Err)
		}
		rep := *r.Telemetry
		rep.Variant = j.label
		if j.cfg.Detection == clean.DetectCLEAN {
			// The CLEAN detector's shadow footprint at run end.
			g := rep.Metrics.Gauges
			g["core.shadow_mapped_pages"] = float64(r.Footprint.MappedPages)
			g["core.shadow_lines_compact"] = float64(r.Footprint.LinesCompact)
			g["core.shadow_lines_expanded"] = float64(r.Footprint.LinesExpanded)
			g["core.shadow_metadata_bytes"] = float64(r.Footprint.MetadataBytes)
		}
		bench.Runs = append(bench.Runs, rep)

		perK := rep.Gauge("machine.shared_per_1k_ops")
		tb.AddRow(j.wl.Name, j.label, perK,
			rep.Counter("machine.ops"), rep.Counter("machine.sync_ops"),
			rep.Counter("kendo.wait_ops"), rep.Outcome)
		if j.label == "base" {
			freqs = append(freqs, perK)
			bench.AddSummary("perf.shared_per_1k_ops."+j.wl.Name, perK)
		}
	}
	bench.AddSummary("perf.shared_per_1k_ops.mean", stats.Mean(freqs))
	bench.SortRuns()

	if _, err := fmt.Fprint(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmean shared accesses per 1000 ops (base): %.1f\n", stats.Mean(freqs))
	if o.JSONDir != "" {
		path, err := bench.WriteFile(o.JSONDir)
		if err != nil {
			return fmt.Errorf("perf: writing bench file: %w", err)
		}
		fmt.Fprintf(w, "wrote %s (%d runs)\n", path, len(bench.Runs))
	}
	return nil
}
