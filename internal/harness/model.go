package harness

import (
	"errors"
	"fmt"
	"io"

	clean "repro"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Detect reproduces the first §6.2.2 experiment: every unmodified racy
// benchmark, run repeatedly (the paper: 100 times, simlarge), must always
// end with a race exception. The table reports the exception kinds seen.
func Detect(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleSimLarge)
	reps := o.reps(20)
	tb := stats.NewTable("benchmark", "runs", "exceptions", "WAW", "RAW")
	for _, wl := range workloads.All() {
		if !wl.Racy {
			continue
		}
		var exceptions, waw, raw int
		// Each repetition is an independent run keyed by its seed: fan the
		// reps across the worker pool and classify in rep order.
		errs := ForEachIndexed(o.workers(), reps, func(rep int) error {
			return runVariant(wl, scale, workloads.Unmodified, clean.Config{
				Seed: int64(rep), DeterministicSync: true, Detection: clean.DetectCLEAN,
			}).Err
		})
		for rep, rerr := range errs {
			var re *clean.RaceError
			if errors.As(rerr, &re) {
				exceptions++
				switch re.Kind {
				case clean.WAW:
					waw++
				case clean.RAW:
					raw++
				default:
					return fmt.Errorf("detect: %s: CLEAN reported %v", wl.Name, re.Kind)
				}
			} else if rerr != nil {
				return fmt.Errorf("detect: %s rep %d: unexpected error: %v", wl.Name, rep, rerr)
			}
		}
		tb.AddRow(wl.Name, reps, exceptions, waw, raw)
		if exceptions != reps {
			fmt.Fprintf(w, "WARNING: %s completed %d/%d runs without an exception\n",
				wl.Name, reps-exceptions, reps)
		}
	}
	_, err := fmt.Fprint(w, tb.String())
	return err
}

// Determinism reproduces the second §6.2.2 experiment: the modified
// (race-free) benchmarks never raise exceptions and always produce the
// same output, the same final deterministic counters, and the same shared
// read/write counts, across different schedules.
func Determinism(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleSimLarge)
	reps := o.reps(20)
	tb := stats.NewTable("benchmark", "runs", "exceptions", "deterministic")
	for _, wl := range workloads.All() {
		if !wl.HasModified {
			continue
		}
		type fp struct {
			hash     uint64
			counters string
			reads    uint64
			writes   uint64
		}
		var ref fp
		deterministic := true
		exceptions := 0
		// Fan the independent repetitions out, then compare fingerprints
		// in rep order against rep 0 exactly as the sequential loop did.
		type repOut struct {
			err error
			cur fp
		}
		outs := ForEachIndexed(o.workers(), reps, func(rep int) repOut {
			r := runVariant(wl, scale, workloads.Modified, clean.Config{
				Seed: int64(rep), DeterministicSync: true, Detection: clean.DetectCLEAN,
			})
			if r.Err != nil {
				return repOut{err: r.Err}
			}
			return repOut{cur: fp{
				hash:     r.OutputHash,
				counters: fmt.Sprint(r.FinalCounters),
				reads:    r.Stats.SharedReads,
				writes:   r.Stats.SharedWrites,
			}}
		})
		for rep, out := range outs {
			if out.err != nil {
				exceptions++
				continue
			}
			cur := out.cur
			if rep == 0 {
				ref = cur
			} else if cur != ref {
				deterministic = false
				if o.Verbose {
					fmt.Fprintf(w, "  %s rep %d diverged: %+v vs %+v\n", wl.Name, rep, cur, ref)
				}
			}
		}
		tb.AddRow(wl.Name, reps, exceptions, deterministic)
		if exceptions > 0 || !deterministic {
			fmt.Fprintf(w, "WARNING: %s violated the §6.2.2 expectation\n", wl.Name)
		}
	}
	_, err := fmt.Fprint(w, tb.String())
	return err
}
