// Telemetry: the observability layer end to end. One deterministic run of
// a benchmark stand-in under full CLEAN (detection + Kendo) with a metric
// registry and a timeline attached, showing the three surfaces:
//
//   - the metric registry: machine.* access classification, core.* detector
//     work (same-epoch fast path vs epoch loads/updates), kendo.* wait
//     counters with p50/p95/p99 yield histograms;
//   - the timeline: per-thread SFR spans, lock hold/contend spans, Kendo
//     wait spans and race-check marks, written as Chrome trace-event JSON
//     (load telemetry_timeline.json in Perfetto or chrome://tracing);
//   - the RunReport: the schema-versioned JSON document unifying identity,
//     outcome and every metric, which cleanbench -json aggregates into
//     BENCH_<experiment>.json files.
//
// Everything here is reachable from the CLIs too: cleanrun -timeline and
// -report produce the same artifacts for any workload.
package main

import (
	"fmt"
	"log"
	"os"

	clean "repro"
	apiv1 "repro/api/v1"
)

func main() {
	log.SetFlags(0)

	metrics := clean.NewMetrics()
	timeline := clean.NewTimeline()
	cfg, err := clean.NewConfig(
		clean.WithDetection(clean.DetectCLEAN),
		clean.WithDeterministicSync(true),
		clean.WithMetrics(metrics),
		clean.WithTimeline(timeline),
	)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := clean.RunWorkload("fft", "test", true, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Err != nil {
		log.Fatalf("run failed: %v", rep.Err)
	}

	// Surface 1: the registry. Counters are exact (they mirror the
	// machine's Stats), gauges carry derived rates, histograms summarize
	// distributions without storing samples.
	snap := metrics.Snapshot()
	fmt.Println("metrics (selected):")
	for _, name := range []string{
		"machine.ops",
		"machine.shared_reads",
		"machine.shared_writes",
		"machine.private_accesses",
		"machine.sync_ops",
		"core.accesses",
		"core.same_epoch_skips",
		"core.epoch_updates",
		"kendo.wait_ops",
	} {
		fmt.Printf("  %-26s %d\n", name, snap.Counters[name])
	}
	fmt.Printf("  %-26s %.2f\n", "machine.shared_per_1k_ops", snap.Gauges["machine.shared_per_1k_ops"])
	if h, ok := snap.Histograms["kendo.wait_yields"]; ok {
		fmt.Printf("  kendo.wait_yields          p50 %.0f  p95 %.0f  p99 %.0f (%d waits)\n",
			h.P50, h.P95, h.P99, h.Count)
	}

	// Surface 2: the timeline. Timestamps are the machine's logical
	// operation counter, so the file is identical on every run.
	f, err := os.Create("telemetry_timeline.json")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := timeline.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntimeline: telemetry_timeline.json (%d events) — open in Perfetto or chrome://tracing\n",
		timeline.Events())

	// Surface 3: the RunReport, already assembled by RunWorkload.
	data, err := apiv1.Encode(rep.Telemetry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrun report (%s, outcome %s, output %s):\n%s",
		rep.Telemetry.Workload, rep.Telemetry.Outcome, rep.Telemetry.OutputHash, data)
}
