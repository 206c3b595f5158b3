// Command cleanrun executes one benchmark stand-in, or one Go source file
// lowered through the gofront front end, on the simulated machine under a
// chosen race detector and prints the outcome: a race exception with its
// details (mapped back to file:line:column for Go source), or the
// completed run's statistics and output fingerprint. With -seeds N it
// runs N consecutive seeds and prints an outcome census instead.
//
// Usage:
//
//	cleanrun -w dedup -variant unmodified        # racy run → race exception
//	cleanrun -w fft -det clean -detsync -seed 3  # deterministic clean run
//	cleanrun -go racy.go                         # run Go source → source-mapped witness
//	cleanrun -go racy.go -seeds 50               # outcome census across 50 seeds
//	cleanrun -w fft -faults thread-crash         # inject a deterministic fault
//	cleanrun -w fft -timeline out.json           # Perfetto/chrome://tracing timeline
//	cleanrun -w fft -report -                    # schema-versioned RunReport JSON
//	cleanrun -w fft -remote http://host:7319     # run on a cleand server
//	cleanrun -list                               # show the registry
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/faults"
	"repro/internal/gofront"
	"repro/internal/harness"
	"repro/internal/predict"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cleanrun: ")
	var (
		name     = flag.String("w", "fft", "workload name (see -list)")
		goFile   = flag.String("go", "", "run this Go source file, lowered through the gofront front end, instead of a workload")
		scale    = flag.String("scale", "simsmall", "input scale: test, simsmall, simlarge, native")
		variant  = flag.String("variant", "modified", "benchmark variant: modified (race-free) or unmodified")
		det      = flag.String("det", "clean", "detector: none, clean, fasttrack, tsanlite or predict")
		detsync  = flag.Bool("detsync", false, "enable Kendo deterministic synchronization")
		seed     = flag.Int64("seed", 0, "scheduler seed")
		seeds    = flag.Int("seeds", 1, "run this many consecutive seeds starting at -seed and print an outcome census")
		list     = flag.Bool("list", false, "list workloads and exit")
		diagnose = flag.Bool("diagnose", false, "on a race exception, rerun in monitor modes and list all findings (§3.1)")
		maxSteps = flag.Uint64("maxsteps", 0, "scheduler-step budget; exhausting it raises a livelock error (0 = unbounded)")
		faultStr = flag.String("faults", "", "inject a deterministic fault and verify its replay: "+faultKindList())
		timeline = flag.String("timeline", "", "write a Chrome trace-event / Perfetto JSON timeline of the run to this file")
		report   = flag.String("report", "", "write the run's schema-versioned RunReport JSON to this file (- for stdout)")
		remote   = flag.String("remote", "", "run on a cleand server at this base URL instead of in-process")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-16s %-8s %-5s %s\n", "NAME", "SUITE", "RACY", "DESCRIPTION")
		for _, w := range clean.Workloads() {
			fmt.Printf("%-16s %-8s %-5v %s\n", w.Name, w.Suite, w.Racy, w.Desc)
		}
		return
	}

	detection, err := clean.ParseDetection(*det)
	if err != nil {
		log.Fatal(err)
	}
	var gp *gofront.Program
	if *goFile != "" {
		if *faultStr != "" || *diagnose || *remote != "" || detection == clean.DetectPredict {
			log.Fatal("-go supports detection runs only (no -faults, -diagnose, -remote, -det predict)")
		}
		if gp, err = gofront.Load(*goFile); err != nil {
			log.Fatal(err) // every positioned diagnostic, one per line
		}
	}
	switch {
	case *seeds < 1:
		log.Fatalf("-seeds %d: want at least 1", *seeds)
	case *seeds > 1 && (*faultStr != "" || *diagnose || *remote != "" || detection == clean.DetectPredict ||
		*timeline != "" || *report != ""):
		log.Fatal("-seeds runs a census of plain runs (no -faults, -diagnose, -remote, -det predict, -timeline, -report)")
	}

	if *remote != "" {
		if *faultStr != "" || *diagnose || *timeline != "" {
			log.Fatal("-remote supports plain runs only (no -faults, -diagnose, -timeline)")
		}
		runRemote(*remote, *det, *detsync, *seed, *maxSteps, *name, *scale, *variant, *report)
		return
	}

	if detection == clean.DetectPredict && (*faultStr != "" || *diagnose || *timeline != "" || *report != "") {
		log.Fatal("-det predict supports plain runs only (no -faults, -diagnose, -timeline, -report)")
	}

	if *faultStr != "" {
		// Fault runs always use CLEAN + deterministic sync: Kendo is what
		// makes the injected failure exactly replayable.
		if err := harness.RunFault(os.Stdout, *name, *scale, *faultStr,
			*variant == "modified", *seed, *maxSteps, 32); err != nil {
			log.Fatal(err)
		}
		return
	}

	// run executes the target once: the lowered Go program or the workload.
	run := func(cfg clean.Config) *clean.Report {
		var rep *clean.Report
		var err error
		if gp != nil {
			rep, err = clean.RunProgram(gp.Prog, cfg)
		} else {
			rep, err = clean.RunWorkload(*name, *scale, *variant == "modified", cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	header := func() {
		if gp != nil {
			fmt.Print(gp.Summary())
		} else {
			fmt.Printf("workload:   %s (%s, %s)\n", *name, *scale, *variant)
		}
	}
	// printRace renders a race exception, in source terms for Go source.
	printRace := func(re *clean.RaceError, rep *clean.Report) {
		fmt.Printf("\nRACE EXCEPTION: %v\n", re)
		if gp != nil {
			fmt.Print(gp.DescribeRace(re, rep.OutputAddr))
		}
	}

	opts := []clean.Option{
		clean.WithDetection(detection),
		clean.WithSeed(*seed),
		clean.WithDeterministicSync(*detsync),
		clean.WithMaxSteps(*maxSteps),
	}
	var tl *clean.Timeline
	if *timeline != "" {
		tl = clean.NewTimeline()
		opts = append(opts, clean.WithTimeline(tl))
	}
	if *report != "" {
		opts = append(opts, clean.WithMetrics(clean.NewMetrics()))
	}
	cfg, err := clean.NewConfig(opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *seeds > 1 {
		header()
		fmt.Printf("detector:   %s   deterministic sync: %v\n", *det, *detsync)
		os.Exit(census(cfg, *seeds, run, printRace))
	}
	rep := run(cfg)
	if *timeline != "" {
		if err := writeTimeline(*timeline, tl); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline:   %s (%d events; load in Perfetto or chrome://tracing)\n", *timeline, tl.Events())
	}
	if *report != "" {
		if err := writeReport(*report, rep.Telemetry); err != nil {
			log.Fatal(err)
		}
		if *report != "-" {
			fmt.Printf("report:     %s\n", *report)
		}
	}

	header()
	if rep.Prediction != nil {
		printPrediction(rep.Prediction, *seed)
		return
	}
	fmt.Printf("detector:   %s   deterministic sync: %v   seed: %d\n", *det, *detsync, *seed)
	fmt.Printf("elapsed:    %v\n", rep.Elapsed)
	s := rep.Stats
	fmt.Printf("accesses:   %d shared (%d reads / %d writes), %d private\n",
		s.SharedAccesses(), s.SharedReads, s.SharedWrites, s.PrivateAccesses)
	fmt.Printf("sync ops:   %d   rollover resets: %d\n", s.SyncOps, s.Rollovers)

	var re *clean.RaceError
	switch {
	case errors.As(rep.Err, &re):
		printRace(re, rep)
		fmt.Printf("  the execution was stopped at the racing access;\n")
		fmt.Printf("  SFR isolation and write-atomicity were preserved up to this point\n")
		if *diagnose {
			dcfg, derr := clean.NewConfig(clean.WithDetection(detection),
				clean.WithSeed(*seed), clean.WithDeterministicSync(*detsync))
			if derr != nil {
				log.Fatal(derr)
			}
			d, derr := clean.DiagnoseWorkload(*name, *scale, *variant == "modified", dcfg)
			if derr != nil {
				log.Fatal(derr)
			}
			fmt.Printf("\ndiagnosis (monitor reruns of the same schedule):\n")
			fmt.Printf("  %d distinct WAW/RAW races:\n", len(d.AllWAWRAW))
			for _, r := range d.AllWAWRAW {
				fmt.Printf("    %v at %#x: thread %d vs thread %d\n", r.Kind, r.Addr, r.TID, r.PrevTID)
			}
			fmt.Printf("  %d WAR hints (tolerated by CLEAN's model):\n", len(d.WARHints))
			for _, h := range d.WARHints {
				fmt.Printf("    WAR near %#x: thread %d vs thread %d\n", h.Addr, h.TID, h.PrevTID)
			}
		}
		os.Exit(2)
	case rep.Err != nil:
		var live *clean.LivelockError
		var merr *clean.MachineError
		if errors.As(rep.Err, &live) || errors.As(rep.Err, &merr) {
			fmt.Printf("\nCONTAINED FAILURE: %v\n", rep.Err)
			var d *clean.Dump
			if live != nil {
				d = live.Dump
			} else if merr != nil {
				d = merr.Dump
			}
			if d != nil {
				fmt.Printf("\ndiagnostic dump:\n%s", d)
			}
			os.Exit(3)
		}
		log.Fatal(rep.Err)
	default:
		fmt.Printf("output:     %#016x (deterministic under -detsync)\n", rep.OutputHash)
		fmt.Printf("completed without a race exception\n")
	}
}

// census runs n consecutive seeds from cfg.Seed, tallies their outcomes
// and renders the first race. It returns the exit status: 2 when some
// seed raced, 3 when some other seed failed, 0 otherwise.
func census(cfg clean.Config, n int, run func(clean.Config) *clean.Report, printRace func(*clean.RaceError, *clean.Report)) int {
	fmt.Printf("census:     %d seeds starting at %d\n", n, cfg.Seed)
	tally := map[string]int{}
	var first *clean.RaceError
	var firstRep *clean.Report
	var firstSeed int64
	status := 0
	for i := 0; i < n; i, cfg.Seed = i+1, cfg.Seed+1 {
		rep := run(cfg)
		outcome := clean.OutcomeOf(rep.Err)
		var re *clean.RaceError
		switch {
		case errors.As(rep.Err, &re):
			outcome = re.Kind.String() + " exception"
			if first == nil {
				first, firstRep, firstSeed = re, rep, cfg.Seed
			}
		case rep.Err != nil:
			status = 3
		}
		tally[outcome]++
	}
	outcomes := make([]string, 0, len(tally))
	for o := range tally {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Printf("  %s × %d\n", o, tally[o])
	}
	if first == nil {
		return status
	}
	fmt.Printf("first race (seed %d):\n", firstSeed)
	printRace(first, firstRep)
	return 2
}

// runRemote executes the workload on a cleand server through the v1
// client and prints the same outcome summary as a local run. The
// server's witness and determinism hash match an in-process run of the
// same configuration byte for byte — remote adds transport, not
// semantics. The client retries 429/503 rejections with backoff
// (honoring the server's Retry-After) before giving up, so a briefly
// saturated server delays the run instead of failing it; the
// idempotency key attached to the submission keeps those retries from
// double-running the job.
func runRemote(base, det string, detsync bool, seed int64, maxSteps uint64, name, scale, variant, report string) {
	ctx := context.Background()
	c := service.NewClient(base)
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{
		Detection: det,
		Seed:      seed,
		DetSync:   detsync,
		MaxSteps:  maxSteps,
		Metrics:   report != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{
		Workload: &apiv1.WorkloadSpec{Name: name, Scale: scale, Variant: variant},
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(job.Runs) != 1 {
		log.Fatalf("server returned %d runs, want 1", len(job.Runs))
	}
	res := job.Runs[0]

	if report != "" && res.Report != nil {
		data, err := apiv1.Encode(res.Report)
		if err != nil {
			log.Fatal(err)
		}
		if report == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(report, data, 0o644); err != nil {
			log.Fatal(err)
		} else {
			fmt.Printf("report:     %s\n", report)
		}
	}

	fmt.Printf("workload:   %s (%s, %s) on %s\n", name, scale, variant, base)
	fmt.Printf("detector:   %s   deterministic sync: %v   seed: %d\n", det, detsync, seed)
	fmt.Printf("elapsed:    %.3fs (server)\n", res.ElapsedSeconds)
	switch res.Outcome {
	case apiv1.OutcomeCompleted:
		fmt.Printf("output:     %s (deterministic under -detsync)\n", res.DeterminismHash)
		fmt.Printf("completed without a race exception\n")
	case apiv1.OutcomeRaceException:
		fmt.Printf("\nRACE EXCEPTION: %s\n", res.Error)
		if w := res.Witness; w != nil {
			fmt.Printf("  witness: %s at %#x (%d bytes): thread %d (SFR %d) vs thread %d@%d [%s]\n",
				w.Kind, w.Addr, w.Size, w.TID, w.SFR, w.PrevTID, w.PrevClock, w.Detector)
		}
		os.Exit(2)
	default:
		fmt.Printf("\n%s: %s\n", strings.ToUpper(res.Outcome), res.Error)
		os.Exit(3)
	}
}

// faultKindList renders the -faults choices.
func faultKindList() string {
	var names []string
	for _, k := range faults.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

// writeTimeline renders the recorded timeline into path.
func writeTimeline(path string, tl *clean.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tl.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport encodes the run report into path, or stdout for "-", as
// the api/v1 document.
func writeReport(path string, rep *clean.RunReport) error {
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

// printPrediction reports a -det predict run: one run under the seeded
// recorder, then races predicted in its sync-preserving reorderings, each
// certified by replaying its witness schedule against the CLEAN detector
// (internal/predict). Exit 2 when any prediction certifies.
func printPrediction(res *predict.Result, seed int64) {
	fmt.Printf("detector:   predict   seed: %d\n", seed)
	if res.Recording.Err != nil {
		fmt.Printf("recording:  ended with %v\n", res.Recording.Err)
	}
	fmt.Printf("recording:  %d events in %d steps; %d candidate pairs, %d feasible, %d uncertified (%d replay steps)\n",
		res.Recording.Events, res.RecordSteps, res.Candidates, res.Feasible, res.Uncertified, res.ReplaySteps)
	if res.Capped {
		fmt.Printf("capped:     the screen stopped at %d candidate pairs; pairs past the cap were not examined\n", res.Candidates)
	}
	if len(res.Predictions) == 0 {
		fmt.Printf("no races predicted from the recorded run\n")
		return
	}
	fmt.Printf("\nPREDICTED RACES (%d, each certified by witness replay):\n", len(res.Predictions))
	for _, p := range res.Predictions {
		v1 := p.V1(nil)
		fmt.Printf("  %s at %#x (%d bytes): t%d[%d] vs t%d[%d]  schedule %d steps  hash %s\n",
			v1.Race, p.Race.Addr, p.Race.Size,
			v1.First.Thread, v1.First.Index, v1.Second.Thread, v1.Second.Index,
			len(v1.Schedule.Steps), v1.DeterminismHash)
	}
	os.Exit(2)
}
