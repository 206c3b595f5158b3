// Command cleanvet runs the static race analyzer (internal/staticrace)
// over a program in the internal/prog IR — a named litmus program, a
// fuzzer-generated one, or one loaded from a file — and prints every
// conflicting access pair with its lockset and verdict. With -confirm it
// backs the verdict dynamically: exploring the interleaving space for a
// RaceFree claim, replaying the recorded witness schedule for a MustRace
// one.
//
// Usage:
//
//	cleanvet -litmus waw                       # racy litmus → MustRace
//	cleanvet -litmus locked-counter -confirm   # race-freedom proof, checked
//	cleanvet -gen -seed 7 -threads 3 -ops 8    # vet a generated program
//	cleanvet -f prog.txt                       # vet a program file (- = stdin)
//	cleanvet -go racy.go                       # vet real Go source (gofront)
//	cleanvet -litmus waw -dynamic              # predictive: record one run, reorder, certify
//	cleanvet -list                             # show the litmus registry
//
// With -dynamic the static analyzer is replaced by the predictive
// pipeline (internal/predict): one recorded execution, a sync-preserving
// reordering search, and certification-by-replay. Every reported race
// carries a witness schedule that re-executed to a detector hit.
//
// Exit status: 0 RaceFree, 2 MustRace, 3 MayRace, 1 on errors (including
// a -confirm run contradicting the static verdict). With -dynamic:
// 0 no prediction, 2 certified predicted race(s).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	apiv1 "repro/api/v1"
	"repro/internal/explore"
	"repro/internal/gofront"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/staticrace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cleanvet: ")
	var (
		litmus   = flag.String("litmus", "", "analyze a named litmus program (see -list)")
		file     = flag.String("f", "", "analyze a program file in the prog text format (- for stdin)")
		goFile   = flag.String("go", "", "analyze a Go source file, lowered through the gofront front end")
		gen      = flag.Bool("gen", false, "analyze a generated program (progen)")
		seed     = flag.Int64("seed", 0, "generator seed (with -gen) and recording seed (with -dynamic)")
		threads  = flag.Int("threads", 3, "generator worker threads (with -gen)")
		ops      = flag.Int("ops", 12, "generator ops per thread (with -gen)")
		region   = flag.Int("region", 8, "generator shared-region bytes (with -gen)")
		locks    = flag.Int("locks", 2, "generator lock count (with -gen)")
		confirm  = flag.Bool("confirm", false, "confirm the verdict dynamically (bounded exploration / witness replay)")
		maxruns  = flag.Int("maxruns", 200000, "interleaving budget for -confirm exploration")
		dynamic  = flag.Bool("dynamic", false, "predict races from one recorded run (internal/predict) instead of static analysis")
		maxsteps = flag.Uint64("maxsteps", 0, "scheduler-step budget for the -dynamic recording (0 = predict default)")
		show     = flag.Bool("print", false, "print the program source before the report")
		list     = flag.Bool("list", false, "list litmus programs and exit")
		jsonOut  = flag.String("json", "", "write the analysis as RunReport JSON to this file (- for stdout)")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-16s %-5s %s\n", "NAME", "RACY", "DESCRIPTION")
		for _, l := range prog.Litmuses() {
			fmt.Printf("%-16s %-5v %s\n", l.Name, l.Racy, l.Desc)
		}
		return
	}

	p, desc, gp := loadProgram(*litmus, *file, *goFile, *gen, progen.Config{
		Seed: *seed, Threads: *threads, OpsPerThread: *ops, Region: *region, Locks: *locks,
	})
	if err := p.Validate(); err != nil {
		log.Fatalf("invalid program: %v", err)
	}
	if *show {
		fmt.Print(p)
		fmt.Println()
	}

	if *dynamic {
		if *confirm {
			log.Fatal("-dynamic replaces static analysis; it cannot be combined with -confirm")
		}
		runDynamic(desc, p, gp, *seed, *maxsteps, *jsonOut)
		return
	}

	rep := staticrace.Analyze(p)
	printReport(desc, p, rep)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, desc, p, rep); err != nil {
			log.Fatal(err)
		}
	}

	verdict := rep.Verdict()
	if *confirm && !confirmVerdict(p, rep, *maxruns) {
		os.Exit(1)
	}
	switch verdict {
	case staticrace.MustRace:
		os.Exit(2)
	case staticrace.MayRace:
		os.Exit(3)
	}
}

// loadProgram resolves exactly one of the four program sources. The
// third return is the gofront program when -go was used, for mapping
// predictions back to source positions.
func loadProgram(litmus, file, goFile string, gen bool, cfg progen.Config) (*prog.Program, string, *gofront.Program) {
	sources := 0
	for _, on := range []bool{litmus != "", file != "", goFile != "", gen} {
		if on {
			sources++
		}
	}
	if sources != 1 {
		log.Fatal("pick exactly one of -litmus, -f, -go, -gen (or -list)")
	}
	switch {
	case goFile != "":
		gp, err := gofront.Load(goFile)
		if err != nil {
			var de *gofront.DiagError
			if errors.As(err, &de) {
				for _, d := range de.Diags {
					fmt.Fprintf(os.Stderr, "%s\n", d)
				}
				log.Fatalf("%s: %d unsupported construct(s)", goFile, len(de.Diags))
			}
			log.Fatal(err)
		}
		return gp.Prog, fmt.Sprintf("go %s", goFile), gp
	case litmus != "":
		l := prog.LitmusByName(litmus)
		if l == nil {
			log.Fatalf("unknown litmus %q (see -list)", litmus)
		}
		return l.P, fmt.Sprintf("litmus %s (%s)", l.Name, l.Desc), nil
	case file != "":
		r := os.Stdin
		if file != "-" {
			f, err := os.Open(file)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			r = f
		}
		p, err := prog.Parse(r)
		if err != nil {
			log.Fatalf("parse %s: %v", file, err)
		}
		return p, fmt.Sprintf("file %s", file), nil
	default:
		if cfg.Threads < 1 || cfg.OpsPerThread < 0 || cfg.Region < 1 || cfg.Locks < 0 {
			log.Fatalf("invalid generator config: threads %d (≥1), ops %d (≥0), region %d (≥1), locks %d (≥0)",
				cfg.Threads, cfg.OpsPerThread, cfg.Region, cfg.Locks)
		}
		return progen.Generate(cfg), fmt.Sprintf("generated (seed %d)", cfg.Seed), nil
	}
}

func printReport(desc string, p *prog.Program, rep *staticrace.Report) {
	fmt.Printf("program:   %s\n", desc)
	fmt.Printf("shape:     %d worker threads, %d ops, %d-byte region, %d locks\n",
		len(p.Threads), p.NumOps(), p.Region, p.Locks)
	fmt.Printf("accesses:  %d\n", len(rep.Accesses))
	rf, may, must := rep.Counts()
	fmt.Printf("pairs:     %d conflicting (%d MustRace, %d MayRace, %d lock-protected)\n",
		rf+may+must, must, may, rf)
	for _, pair := range rep.Pairs {
		fmt.Printf("  %v\n", pair)
	}
	fmt.Printf("verdict:   %v\n", rep.Verdict())
}

// writeJSON renders the static analysis as a schema-versioned api/v1 run
// report with staticrace.* counters — the published wire shape, shared
// with cleanrun -report and the cleand service.
func writeJSON(path, desc string, p *prog.Program, rep *staticrace.Report) error {
	data, err := apiv1.Encode(staticrace.V1Report(desc, p, rep))
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// confirmVerdict checks the static verdict against the machine and
// reports whether they agree. RaceFree is confirmed by (bounded)
// exploration finding no exception; MustRace by the witness schedule
// raising one; MayRace by exploration either way — both outcomes are
// consistent with the middle verdict.
func confirmVerdict(p *prog.Program, rep *staticrace.Report, maxruns int) bool {
	oracleDet := func() machine.Detector { return oracle.New(oracle.AllRaces) }
	switch rep.Verdict() {
	case staticrace.MustRace:
		first, second, _ := rep.Witness()
		_, err := p.RunPicked(prog.SequentialPicker(first, second), oracleDet())
		var re *machine.RaceError
		if !errors.As(err, &re) {
			fmt.Printf("confirm:   FAILED — witness schedule (t%d then t%d) raised %v, want a race exception\n",
				first, second, err)
			return false
		}
		fmt.Printf("confirm:   witness schedule (t%d then t%d) raised %v\n", first, second, re)
		return true
	default:
		res := explore.RunProgram(explore.Options{Detector: oracleDet, MaxRuns: maxruns}, p, nil)
		scope := "exhaustive"
		if !res.Exhaustive() {
			scope = "bounded"
		}
		excepted := 0
		for _, n := range res.Exceptions {
			excepted += n
		}
		fmt.Printf("confirm:   %s exploration, %d interleavings: %d completed, %d excepted, %d deadlocked\n",
			scope, res.Runs, res.Completed, excepted, res.Deadlocks)
		if rep.Verdict() == staticrace.RaceFree && (excepted > 0 || res.Deadlocks > 0 || res.OtherErrors > 0) {
			fmt.Printf("confirm:   FAILED — statically race-free but the machine disagrees\n")
			return false
		}
		return true
	}
}

// runDynamic runs the predictive pipeline and prints its findings. For
// gofront-loaded programs each racing access is mapped back to a source
// position (best-effort: the recorder indexes recorded events, which for
// lowered programs correspond one-to-one with worker ops).
func runDynamic(desc string, p *prog.Program, gp *gofront.Program, seed int64, maxSteps uint64, jsonOut string) {
	res := predict.Run(predict.ProgramTarget(p), predict.Options{Seed: seed, MaxSteps: maxSteps})
	var src predict.SourceMap
	if gp != nil {
		src = func(worker, index int) string {
			pos, _ := gp.OpAt(worker, index)
			if !pos.IsValid() {
				return ""
			}
			return pos.String()
		}
	}

	fmt.Printf("program:    %s\n", desc)
	fmt.Printf("recording:  %d events, %d steps (seed %d)\n", res.Recording.Events, res.RecordSteps, seed)
	fmt.Printf("screening:  %d candidate pairs, %d feasible reorderings, %d uncertified\n",
		res.Candidates, res.Feasible, res.Uncertified)
	if res.Capped {
		fmt.Printf("capped:     the screen stopped at %d candidate pairs; pairs past the cap were not examined\n", res.Candidates)
	}
	for _, pr := range res.Predictions {
		v1 := pr.V1(src)
		loc := ""
		if v1.Second.Source != "" {
			loc = " at " + v1.Second.Source
		}
		fmt.Printf("predicted:  %s @%d size %d: t%d[%d] vs t%d[%d]%s (schedule %d steps, hash %s)\n",
			v1.Race, pr.Race.Addr, pr.Race.Size,
			v1.First.Thread, v1.First.Index, v1.Second.Thread, v1.Second.Index, loc,
			len(v1.Schedule.Steps), v1.DeterminismHash)
	}
	if len(res.Predictions) == 0 {
		fmt.Printf("verdict:    NoRacePredicted\n")
	} else {
		fmt.Printf("verdict:    RacePredicted (%d certified)\n", len(res.Predictions))
	}

	if jsonOut != "" {
		data, err := apiv1.Encode(res.V1(src))
		if err != nil {
			log.Fatal(err)
		}
		if jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if len(res.Predictions) > 0 {
		os.Exit(2)
	}
}
