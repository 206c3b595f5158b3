// Command cleanbench regenerates the paper's tables and figures
// (DESIGN.md §5 maps each experiment to its module and paper result).
//
// Usage:
//
//	cleanbench -exp fig9                # one experiment
//	cleanbench -exp all -reps 10        # everything, paper-grade reps
//	cleanbench -exp perf -json .        # machine-readable BENCH_perf.json
//	cleanbench -exp all -parallel       # fan independent runs across cores
//	cleanbench -exp fig6 -cpuprofile cpu.pb.gz  # profile the harness itself
//	cleanbench -list                    # show available experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cleanbench: ")
	var (
		exp      = flag.String("exp", "all", "experiment to run (see -list)")
		scale    = flag.String("scale", "", "input scale override: test, simsmall, simlarge, native")
		reps     = flag.Int("reps", 0, "repetitions per measurement (0 = per-experiment default)")
		yieldEv  = flag.Int("yield", 0, "machine scheduling granularity (0 = default 32)")
		list     = flag.Bool("list", false, "list experiments and exit")
		verbose  = flag.Bool("v", false, "verbose output")
		artDir   = flag.String("artifacts", "", "directory for diagnostic dumps of resilience violations")
		jsonDir  = flag.String("json", "", "directory for machine-readable BENCH_<experiment>.json results")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		parallel = flag.Bool("parallel", false, "fan independent runs across CPU cores (deterministic output is unchanged)")
		workers  = flag.Int("workers", 0, "worker count for -parallel (0 = GOMAXPROCS)")
		baseline = flag.String("baseline", "", "directory holding the baseline BENCH_hotpath.json and BENCH_predict.json; the hotpath and predict experiments fail on a tolerance-band regression, or a gated key missing from either file")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // flush recently freed objects so the profile shows live memory
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	opts := harness.Options{Reps: *reps, YieldEvery: *yieldEv, Verbose: *verbose, ArtifactDir: *artDir, JSONDir: *jsonDir, BaselineDir: *baseline}
	if *parallel {
		opts.Parallel = *workers
		if opts.Parallel <= 0 {
			opts.Parallel = runtime.GOMAXPROCS(0)
		}
	}
	if *scale != "" {
		s, err := workloads.ParseScale(*scale)
		if err != nil {
			log.Fatal(err)
		}
		opts.Scale = s
		opts.ScaleSet = true
	}

	if *exp == "all" {
		if err := harness.RunAll(os.Stdout, opts); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, e := range harness.Experiments() {
		if e.Name == *exp {
			if err := e.Run(os.Stdout, opts); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	log.Fatalf("unknown experiment %q (use -list)", *exp)
}
