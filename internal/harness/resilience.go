package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// faultReport is the outcome of one fault-injected run.
type faultReport struct {
	clean.Report
	Fired       []string
	Uncontained string // non-empty when a panic escaped the run
}

// repairs counts the epochs the CLEAN detector's sanity check repaired.
func (r faultReport) repairs() uint64 { return r.Telemetry.Counter("core.metadata_repairs") }

// Outcome classifies a fault-injected run for the resilience table: a
// completed run is "clean", or "metadata-degraded" when it repaired
// corrupted metadata; a failed one is classified by clean.OutcomeOf.
func (r faultReport) Outcome() string {
	switch {
	case r.Uncontained != "":
		return "UNCONTAINED"
	case r.Err == nil && r.repairs() > 0:
		return "metadata-degraded"
	case r.Err == nil:
		return "clean"
	}
	return clean.OutcomeOf(r.Err)
}

// Fingerprint renders everything observable about the run; replay of the
// same (seed, plan) must reproduce it byte-identically.
func (r faultReport) Fingerprint() string {
	errStr := "<nil>"
	if r.Err != nil {
		errStr = r.Err.Error()
	}
	return fmt.Sprintf("err=%q hash=%#x counters=%v fired=%v shared=%d ops=%d steps=%d crashes=%d spurious=%d stalled=%d rollovers=%d repairs=%d",
		errStr, r.OutputHash, r.FinalCounters, r.Fired,
		r.Stats.SharedAccesses(), r.Stats.Ops, r.Stats.Steps,
		r.Stats.Crashes, r.Stats.SpuriousWakes, r.Stats.StalledSteps,
		r.Stats.Rollovers, r.repairs())
}

// Dump extracts the diagnostic dump attached to the run's error, if any.
func (r faultReport) Dump() *clean.Dump {
	var live *clean.LivelockError
	var merr *clean.MachineError
	switch {
	case errors.As(r.Err, &live):
		return live.Dump
	case errors.As(r.Err, &merr):
		return merr.Dump
	}
	return nil
}

// runFaultOnce executes one workload under a fault plan with CLEAN +
// deterministic synchronization and a step budget. Any panic that escapes
// the run is caught and reported as UNCONTAINED — the resilience
// acceptance is that this never happens.
func runFaultOnce(wl workloads.Workload, scale workloads.Scale, variant workloads.Variant,
	plan faults.Plan, seed int64, maxSteps uint64, yieldEvery int) (rep faultReport) {
	defer func() {
		if r := recover(); r != nil {
			rep.Uncontained = fmt.Sprint(r)
		}
	}()
	inj := faults.New(plan)
	cfg := clean.Config{
		Seed:              seed,
		DeterministicSync: true,
		Detection:         clean.DetectCLEAN,
		YieldEvery:        yieldEvery,
		MaxSteps:          maxSteps,
		FaultInjector:     inj,
		Metrics:           clean.NewMetrics(),
	}
	if cb := plan.ClockBits(); cb != 0 {
		cfg.ClockBits, cfg.TIDBits = cb, vclock.DefaultLayout.TIDBits
	}
	rep.Report = *runVariant(wl, scale, variant, cfg)
	rep.Fired = inj.Fired()
	return rep
}

// calibrate measures a fault-free run of the workload so PlanFor can place
// triggers inside its extent.
func calibrate(wl workloads.Workload, scale workloads.Scale, variant workloads.Variant, seed int64, yieldEvery int) faults.Profile {
	rep := runFaultOnce(wl, scale, variant, faults.Plan{}, seed, machine.DefaultMaxSteps, yieldEvery)
	return faults.Profile{
		Ops:            rep.Stats.Ops,
		Steps:          rep.Stats.Steps,
		SharedAccesses: rep.Stats.SharedAccesses(),
		SyncOps:        rep.Stats.SyncOps,
		Threads:        workloads.NumThreads + 1,
	}
}

// resilienceVariant picks the race-free variant when one exists so fault
// outcomes are attributable to the injection, not to the workload's own
// races.
func resilienceVariant(wl workloads.Workload) workloads.Variant {
	if wl.HasModified {
		return workloads.Modified
	}
	return workloads.Unmodified
}

// resilienceRetries bounds the seed rotation used when a planned fault
// never fires (trigger beyond the run's actual extent under that seed).
const resilienceRetries = 3

// Resilience runs every workload under the full fault matrix with bounded
// retry + seed rotation, classifies each outcome (clean / race-exception /
// deadlock / livelock / contained-crash / metadata-degraded), and verifies
// that every injected failure replays byte-identically under the same
// (seed, plan). It returns an error — failing the experiment — when a
// panic escapes the machine, a replay diverges, or a flipped shadow bit
// produces a spurious race exception on a race-free workload.
func Resilience(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleTest)
	ye := o.yieldEvery()
	baseSeed := int64(1)
	tb := stats.NewTable("benchmark", "fault", "outcome", "fired", "replay", "repairs", "rollovers", "tries")
	var violations []string
	outcomes := map[string]int{}
	for _, wl := range workloads.All() {
		variant := resilienceVariant(wl)
		prof := calibrate(wl, scale, variant, baseSeed, ye)
		// Budget generously above the calibrated extent: stall windows,
		// rollover pressure and retries all fit, while a genuinely stuck
		// run trips the livelock watchdog quickly.
		budget := prof.Steps*10 + 100_000
		for _, kind := range faults.Kinds() {
			var rep faultReport
			var plan faults.Plan
			var seed int64
			tries := 0
			for attempt := 0; attempt < resilienceRetries; attempt++ {
				tries++
				seed = baseSeed + int64(1000*attempt)
				plan = faults.PlanFor(kind, seed, prof)
				rep = runFaultOnce(wl, scale, variant, plan, seed, budget, ye)
				if len(rep.Fired) > 0 || kind == faults.ClockPressure {
					break // the fault landed (clock pressure fires implicitly)
				}
			}
			replay := runFaultOnce(wl, scale, variant, plan, seed, budget, ye)
			outcome := rep.Outcome()
			outcomes[outcome]++
			replayOK := rep.Fingerprint() == replay.Fingerprint()
			fired := len(rep.Fired) > 0
			if kind == faults.ClockPressure {
				fired = rep.Stats.Rollovers > 0
			}
			tb.AddRow(wl.Name, kind.String(), outcome, yesNo(fired), yesNo(replayOK),
				rep.repairs(), rep.Stats.Rollovers, tries)

			cell := fmt.Sprintf("%s/%s", wl.Name, kind)
			priorViolations := len(violations)
			if rep.Uncontained != "" || replay.Uncontained != "" {
				violations = append(violations, fmt.Sprintf("%s: uncontained panic: %s%s", cell, rep.Uncontained, replay.Uncontained))
			}
			if !replayOK {
				violations = append(violations, fmt.Sprintf("%s: replay diverged:\n  run:    %s\n  replay: %s",
					cell, rep.Fingerprint(), replay.Fingerprint()))
			}
			if kind == faults.ShadowBitFlip && variant == workloads.Modified && outcome == "race-exception" {
				violations = append(violations, fmt.Sprintf("%s: flipped shadow bit raised a spurious race exception: %v", cell, rep.Err))
			}
			if len(violations) > priorViolations && o.ArtifactDir != "" {
				writeFaultArtifact(o.ArtifactDir, cell, plan, rep, replay)
			}
			if o.Verbose && rep.Err != nil {
				fmt.Fprintf(w, "%s: %v\n", cell, rep.Err)
			}
		}
	}
	if _, err := fmt.Fprint(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\noutcomes:")
	for _, k := range []string{"clean", "race-exception", "deadlock", "livelock", "contained-crash", "metadata-degraded", "UNCONTAINED", "error"} {
		if outcomes[k] > 0 {
			fmt.Fprintf(w, " %s=%d", k, outcomes[k])
		}
	}
	fmt.Fprintln(w)
	if len(violations) > 0 {
		return fmt.Errorf("resilience: %d violation(s):\n%s", len(violations), strings.Join(violations, "\n"))
	}
	fmt.Fprintln(w, "all faults contained; every failure replayed byte-identically")
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// writeFaultArtifact saves a diagnostic dump plus, when the run returned
// one, its RunReport for a violated cell so CI can upload both.
func writeFaultArtifact(dir, cell string, plan faults.Plan, rep, replay faultReport) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	base := strings.ReplaceAll(cell, "/", "-")
	var b strings.Builder
	fmt.Fprintf(&b, "cell: %s\nplan: %s (seed %d)\n\nrun:    %s\nreplay: %s\n",
		cell, plan, plan.Seed, rep.Fingerprint(), replay.Fingerprint())
	if rep.Uncontained != "" {
		fmt.Fprintf(&b, "\nuncontained panic: %s\n", rep.Uncontained)
	}
	if d := rep.Dump(); d != nil {
		fmt.Fprintf(&b, "\ndiagnostic dump:\n%s", d)
	}
	_ = os.WriteFile(filepath.Join(dir, base+".txt"), []byte(b.String()), 0o644)

	if rep.Telemetry == nil {
		return
	}
	if data, err := apiv1.Encode(rep.Telemetry); err == nil {
		_ = os.WriteFile(filepath.Join(dir, base+".report.json"), data, 0o644)
	}
}

// RunFault is the cmd/cleanrun -faults entry point: calibrate, build a
// deterministic plan of the named kind, run it once, verify replay, and
// print the outcome with its diagnostic dump.
func RunFault(w io.Writer, workload, scaleName, kindName string, modified bool, seed int64, maxSteps uint64, yieldEvery int) error {
	wl, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("harness: unknown workload %q", workload)
	}
	scale, err := workloads.ParseScale(scaleName)
	if err != nil {
		return err
	}
	kind, err := faults.ParseKind(kindName)
	if err != nil {
		return err
	}
	variant := workloads.Unmodified
	if modified {
		if !wl.HasModified {
			return fmt.Errorf("harness: %s has no modified variant", workload)
		}
		variant = workloads.Modified
	}
	if yieldEvery < 1 {
		yieldEvery = 1
	}
	prof := calibrate(wl, scale, variant, seed, yieldEvery)
	if maxSteps == 0 {
		maxSteps = prof.Steps*10 + 100_000
	}
	plan := faults.PlanFor(kind, seed, prof)
	fmt.Fprintf(w, "fault plan:  %s (seed %d)\n", plan, seed)
	rep := runFaultOnce(wl, scale, variant, plan, seed, maxSteps, yieldEvery)
	replay := runFaultOnce(wl, scale, variant, plan, seed, maxSteps, yieldEvery)
	fmt.Fprintf(w, "outcome:     %s\n", rep.Outcome())
	fmt.Fprintf(w, "fired:       %v\n", rep.Fired)
	if len(rep.Fired) == 0 && kind != faults.ClockPressure {
		fmt.Fprintf(w, "note:        no injection fired under this seed (trigger outside the run's extent); try another -seed\n")
	}
	fmt.Fprintf(w, "replay:      identical=%v\n", rep.Fingerprint() == replay.Fingerprint())
	if rep.Err != nil {
		fmt.Fprintf(w, "error:       %v\n", rep.Err)
	}
	if n := rep.repairs(); n > 0 {
		fmt.Fprintf(w, "metadata repairs (monitor-mode re-checks): %d\n", n)
	}
	if d := rep.Dump(); d != nil {
		fmt.Fprintf(w, "\ndiagnostic dump:\n%s", d)
	}
	if rep.Uncontained != "" {
		return fmt.Errorf("harness: uncontained panic: %s", rep.Uncontained)
	}
	if rep.Fingerprint() != replay.Fingerprint() {
		return fmt.Errorf("harness: replay diverged from the original run")
	}
	return nil
}
