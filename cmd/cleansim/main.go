// Command cleansim records a workload's execution trace and replays it
// through the hardware timing simulator (§5-§6.3): the paper's 8-core MESI
// hierarchy with the CLEAN race-check engine. It prints cycle counts,
// the detection slowdown, the Fig. 10 access classification, and the
// compact/expanded line behaviour.
//
// Usage:
//
//	cleansim -w dedup                    # CLEAN hardware vs baseline
//	cleansim -w ocean_cp -scheme epoch4  # Fig. 11 alternative design
//	cleansim -w fft -report sim.json     # machine-readable hwsim RunReport
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/hwsim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cleansim: ")
	var (
		name   = flag.String("w", "dedup", "workload name")
		scale  = flag.String("scale", "simsmall", "input scale")
		scheme = flag.String("scheme", "clean", "metadata scheme: clean, epoch1, epoch4")
		seed   = flag.Int64("seed", 1, "scheduler seed for the traced run")
		save   = flag.String("save", "", "write the recorded trace to this file")
		load   = flag.String("load", "", "replay a previously saved trace instead of running the workload")
		report = flag.String("report", "", "write the simulation's hwsim.* counters as RunReport JSON to this file (- for stdout)")
	)
	flag.Parse()

	var sch hwsim.Scheme
	switch *scheme {
	case "clean":
		sch = hwsim.SchemeClean
	case "epoch1":
		sch = hwsim.Scheme1Byte
	case "epoch4":
		sch = hwsim.Scheme4Byte
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}

	rec := &trace.Recorder{}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rec.Trace.ReadFrom(f); err != nil {
			log.Fatalf("loading %s: %v", *load, err)
		}
		f.Close()
	} else {
		cfg, err := clean.NewConfig(clean.WithDetection(clean.DetectNone), clean.WithSeed(*seed),
			clean.WithYieldEvery(32), clean.WithTracer(rec))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := clean.RunWorkload(*name, *scale, true, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Err != nil {
			log.Fatalf("tracing run failed: %v", rep.Err)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rec.Trace.WriteTo(f); err != nil {
			log.Fatalf("saving %s: %v", *save, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace saved to %s\n", *save)
	}
	counts := rec.Trace.Count()
	fmt.Printf("trace:      %d accesses (%d shared), %d sync ops, %d work units\n",
		counts.Accesses, counts.Shared, counts.Syncs, counts.WorkUnits)

	base := hwsim.Simulate(&rec.Trace, hwsim.Config{Scheme: hwsim.SchemeNone})
	r := hwsim.Simulate(&rec.Trace, hwsim.Config{Scheme: sch})

	fmt.Printf("baseline:   %d cycles total (%d critical path)\n", base.TotalCycles, base.Cycles)
	fmt.Printf("%-10s  %d cycles total (%d critical path)\n", *scheme+":", r.TotalCycles, r.Cycles)
	fmt.Printf("slowdown:   %.2f%%\n",
		(float64(r.TotalCycles)/float64(base.TotalCycles)-1)*100)

	fmt.Println("\naccess classification (Fig. 10):")
	for c := hwsim.ClassPrivate; c < hwsim.NumClasses; c++ {
		fmt.Printf("  %-18s %6.2f%%\n", c, r.ClassFraction(c)*100)
	}
	if sch == hwsim.SchemeClean {
		tot := r.CompactAccesses + r.ExpandedAccesses
		if tot > 0 {
			fmt.Printf("\nepoch lines: %.1f%% of shared accesses to compact lines, %.1f%% to expanded (%d expansions)\n",
				float64(r.CompactAccesses)/float64(tot)*100,
				float64(r.ExpandedAccesses)/float64(tot)*100,
				r.Expansions)
		}
	}
	fmt.Printf("\ncaches: L1 %d, L2 %d local / %d remote, L3 %d, memory %d (LLC miss %.2f%%)\n",
		r.Hier.L1Hits, r.Hier.L2LocalHits, r.Hier.L2RemoteHits,
		r.Hier.L3Hits, r.Hier.MemAccesses, r.Hier.LLCMissRate()*100)

	if *report != "" {
		if err := writeReport(*report, *name, *scale, *scheme, *seed, r); err != nil {
			log.Fatal(err)
		}
		if *report != "-" {
			fmt.Printf("\nreport written to %s\n", *report)
		}
	}
}

// writeReport renders the simulation result as a schema-versioned
// RunReport carrying the hwsim.* counters (Fig. 10 classification, cache
// hierarchy, compact/expanded line stats).
func writeReport(path, name, scale, scheme string, seed int64, r hwsim.Result) error {
	reg := telemetry.NewRegistry()
	r.PublishTo(reg)
	rep := apiv1.NewRunReport()
	rep.Workload = name
	rep.Scale = scale
	rep.Variant = "hwsim/" + scheme
	rep.Seed = seed
	rep.Outcome = "completed"
	rep.Metrics = reg.Snapshot()
	data, err := apiv1.Encode(rep)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
