package clean

import (
	"errors"

	"repro/internal/core"
	"repro/internal/tsanlite"
)

// Diagnosis is the result of DiagnoseWorkload: the paper's §3.1 debugging
// workflow for a program whose CLEAN run raised a race exception.
type Diagnosis struct {
	// FirstException is the race exception CLEAN raised (nil when the
	// run completed — then there is nothing to diagnose on this
	// schedule).
	FirstException *RaceError
	// AllWAWRAW lists every WAW/RAW race a monitor-mode CLEAN re-run of
	// the same schedule encountered (deduplicated by location and
	// thread pair).
	AllWAWRAW []RaceError
	// WARHints lists write-after-read conflicts an imprecise monitor
	// observed on the same schedule. CLEAN tolerates these by design;
	// they are reported as hints because the same code locations often
	// also race in the detected directions under other timings.
	WARHints []tsanlite.Report
}

// DiagnoseWorkload implements the follow-up the paper describes in §3.1:
// "if a program execution does trigger a race exception, a precise race
// detector can be used alongside CLEAN in subsequent runs to
// systematically detect all races."
//
// It runs the workload under CLEAN once (the production configuration);
// if that run raises an exception, the identical schedule is re-run twice
// in monitor modes — CLEAN-monitor to enumerate every WAW/RAW race, and
// the TSan-like detector to surface WAR conflicts — and the findings are
// combined. Determinism makes the re-runs meaningful: with cfg's seed
// fixed, all three runs observe the same execution prefix.
func DiagnoseWorkload(name, scale string, modified bool, cfg Config) (*Diagnosis, error) {
	id, target, err := workloadTarget(name, scale, modified)
	if err != nil {
		return nil, err
	}
	// 1. Production run under CLEAN, as RunWorkload runs it.
	first, err := run(cfg, cfg.detector(), nil, id, target)
	if err != nil {
		return nil, err
	}
	d := &Diagnosis{}
	if first.Err == nil {
		return d, nil
	}
	if !errors.As(first.Err, &d.FirstException) {
		return nil, first.Err // deadlock or workload bug: not a race matter
	}
	// rerun replays the same schedule under a monitor-mode detector.
	rerun := func(det Detector) error {
		rep, err := run(cfg, det, nil, id, target)
		if err != nil {
			return err
		}
		return rep.Err
	}

	// 2. Monitor-mode CLEAN on the same schedule: all WAW/RAW races.
	mon := core.New(core.Config{Layout: cfg.layout(), Monitor: true})
	if err := rerun(mon); err != nil {
		return nil, err
	}
	d.AllWAWRAW = mon.Races()

	// 3. Imprecise WAR scan on the same schedule.
	ts := tsanlite.New(tsanlite.Config{Layout: cfg.layout(), Monitor: true})
	if err := rerun(ts); err != nil {
		return nil, err
	}
	for _, r := range ts.Races() {
		if r.Kind == WAR {
			d.WARHints = append(d.WARHints, r)
		}
	}
	return d, nil
}
