// Bankrace: the timing-dependent half of CLEAN's execution model (§3.1),
// driven from real Go source through the gofront front end.
//
// testdata/audit.go is ordinary Go: an auditor goroutine reads two
// account balances while main transfers money between them, with no
// synchronization between the reads and the writes. gofront lowers the
// source into the prog IR, the static analyzer proves the read/write
// pairs MustRace at their exact source positions, and a census across
// scheduler seeds shows both dynamic resolutions of the race:
//
//   - read after write  → a RAW race: CLEAN raises an exception;
//   - read before write → a WAR race: CLEAN deliberately does not detect
//     it, and the execution completes — but §3.1 guarantees the
//     completed execution's reads returned the last happens-before
//     write, so the auditor saw a consistent pre-transfer snapshot,
//     never a torn one.
package main

import (
	_ "embed"
	"errors"
	"fmt"
	"log"

	clean "repro"
	"repro/internal/gofront"
	"repro/internal/staticrace"
)

//go:embed testdata/audit.go
var src []byte

func main() {
	p, err := gofront.LoadSource("audit.go", src)
	if err != nil {
		log.Fatal(err)
	}
	rep := staticrace.Analyze(p.Prog)
	fmt.Printf("static analysis of audit.go: %v\n", rep.Verdict())
	for _, pair := range rep.Pairs {
		if pair.Verdict == staticrace.MustRace {
			fmt.Printf("  %s\n    races with %s\n",
				p.DescribeAccess(pair.A.Thread, pair.A.Index),
				p.DescribeAccess(pair.B.Thread, pair.B.Index))
		}
	}

	cfg, err := clean.NewConfig(clean.WithDetection(clean.DetectCLEAN), clean.WithSeed(0))
	if err != nil {
		log.Fatal(err)
	}
	var exceptions, completions int
	for cfg.Seed = 0; cfg.Seed < 60; cfg.Seed++ {
		rep, err := clean.RunProgram(p.Prog, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var re *clean.RaceError
		switch {
		case errors.As(rep.Err, &re):
			if re.Kind == clean.WAR {
				log.Fatal("CLEAN must never raise WAR exceptions")
			}
			exceptions++
		case rep.Err != nil:
			log.Fatal(rep.Err)
		default:
			completions++
		}
	}
	fmt.Printf("60 schedules: %d race exceptions (RAW), %d completions (the race resolved as WAR)\n",
		exceptions, completions)
	if exceptions == 0 || completions == 0 {
		log.Fatal("expected both outcomes across 60 seeds: the race is timing-dependent")
	}
	fmt.Println("every completed run's audit read the last happens-before write (§3.4):")
	fmt.Println("a consistent pre-transfer snapshot — no out-of-thin-air totals")
}
