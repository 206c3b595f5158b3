package harness

import (
	"fmt"
	"io"
	"time"

	clean "repro"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// Fig6 reproduces the software-only CLEAN performance figure: per
// benchmark, the execution time of deterministic synchronization alone,
// race detection alone, and full CLEAN, normalized to the uninstrumented
// nondeterministic run. The paper reports 7.8x average for full CLEAN of
// which 5.8x is detection.
func Fig6(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleNative)
	reps := o.reps(3)
	ye := o.yieldEvery()
	tb := stats.NewTable("benchmark", "detsync", "detect", "full CLEAN", "±full")
	var dsAll, detAll, fullAll []float64
	for _, wl := range perfSuite() {
		time1 := func(cfg clean.Config) (float64, float64) {
			cfg.YieldEvery = ye
			return meanSeconds(o.workers(), reps, func(rep int) time.Duration {
				c := cfg
				c.Seed = int64(rep)
				r := runVariant(wl, scale, workloads.Modified, c)
				if r.Err != nil {
					panic(fmt.Sprintf("fig6: %s: %v", wl.Name, r.Err))
				}
				return r.Elapsed
			})
		}
		base, _ := time1(clean.Config{})
		ds, _ := time1(clean.Config{DeterministicSync: true})
		det, _ := time1(clean.Config{Detection: clean.DetectCLEAN})
		full, fullCI := time1(clean.Config{DeterministicSync: true, Detection: clean.DetectCLEAN})
		dsN, detN, fullN := ds/base, det/base, full/base
		dsAll = append(dsAll, dsN)
		detAll = append(detAll, detN)
		fullAll = append(fullAll, fullN)
		tb.AddRow(wl.Name, dsN, detN, fullN, fullCI/base)
	}
	tb.AddRow("average", stats.Mean(dsAll), stats.Mean(detAll), stats.Mean(fullAll), "")
	_, err := fmt.Fprint(w, tb.String())
	return err
}

// Fig7 reproduces the shared-access frequency figure: instrumented
// accesses per thousand executed operations (the paper plots accesses per
// second of native execution; the per-operation ratio is the
// machine-independent equivalent). lu_cb and lu_ncb must lead.
func Fig7(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleNative)
	tb := stats.NewTable("benchmark", "shared/1k ops", "shared accesses", "ops")
	suite := perfSuite()
	// One independent run per workload: fan across the suite, report in
	// suite order. Frequencies are deterministic, so the table is
	// byte-identical however the runs were scheduled.
	results := ForEachIndexed(o.workers(), len(suite), func(i int) *clean.Report {
		return runVariant(suite[i], scale, workloads.Modified, clean.Config{YieldEvery: o.yieldEvery()})
	})
	for i, wl := range suite {
		r := results[i]
		if r.Err != nil {
			return fmt.Errorf("fig7: %s: %v", wl.Name, r.Err)
		}
		freq := float64(r.Stats.SharedAccesses()) / float64(r.Stats.Ops) * 1000
		tb.AddRow(wl.Name, freq, r.Stats.SharedAccesses(), r.Stats.Ops)
	}
	_, err := fmt.Fprint(w, tb.String())
	return err
}

// Fig8 reproduces the vectorization-impact figure: detection-only
// slowdown with the §4.4 multi-byte optimization on and off, plus the two
// statistics the paper cites — the fraction of shared accesses that are
// ≥4 bytes (91.9% average) and the fraction of multi-byte accesses whose
// epochs all match (>99.7% everywhere).
func Fig8(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleNative)
	reps := o.reps(3)
	ye := o.yieldEvery()
	tb := stats.NewTable("benchmark", "no-vec", "vec", "speedup", "≥4B %", "same-epoch %")
	var speedups []float64
	for _, wl := range perfSuite() {
		time1 := func(noVec bool) float64 {
			m, _ := meanSeconds(o.workers(), reps, func(rep int) time.Duration {
				r := runVariant(wl, scale, workloads.Modified, clean.Config{
					Seed: int64(rep), YieldEvery: ye,
					Detection: clean.DetectCLEAN, DisableMultibyteOpt: noVec,
				})
				if r.Err != nil {
					panic(fmt.Sprintf("fig8: %s: %v", wl.Name, r.Err))
				}
				return r.Elapsed
			})
			return m
		}
		base, _ := meanSeconds(o.workers(), reps, func(rep int) time.Duration {
			return runVariant(wl, scale, workloads.Modified, clean.Config{Seed: int64(rep), YieldEvery: ye}).Elapsed
		})
		noVec := time1(true)
		vec := time1(false)
		// Detector counters from one instrumented run.
		r := runVariant(wl, scale, workloads.Modified, clean.Config{
			YieldEvery: ye, Detection: clean.DetectCLEAN, Metrics: clean.NewMetrics(),
		})
		if r.Err != nil {
			return fmt.Errorf("fig8: %s: %v", wl.Name, r.Err)
		}
		var wide, same float64
		var total uint64
		for sz, cnt := range r.Stats.AccessBySize {
			total += cnt
			if sz >= 4 {
				wide += float64(cnt)
			}
		}
		if total > 0 {
			wide = wide / float64(total) * 100
		}
		if n := r.Telemetry.Counter("core.multibyte_accesses"); n > 0 {
			same = float64(r.Telemetry.Counter("core.multibyte_same_epoch")) / float64(n) * 100
		}
		sp := noVec / vec
		speedups = append(speedups, sp)
		tb.AddRow(wl.Name, noVec/base, vec/base, sp, wide, same)
	}
	tb.AddRow("average", "", "", stats.Mean(speedups), "", "")
	_, err := fmt.Fprint(w, tb.String())
	return err
}

// Table1 reproduces the clock-rollover table. The paper's 23-bit clocks
// roll over only after ~8.4M synchronization operations per thread; these
// kernels synchronize thousands of times per run, so the experiment uses
// a proportionally narrower "default" clock (10 bits) against a wide
// 28-bit clock that never rolls over — the same contrast as the paper's
// 23 vs 28 bits. Only benchmarks experiencing rollovers are listed, as in
// the paper.
func Table1(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleNative)
	reps := o.reps(3)
	ye := o.yieldEvery()
	narrow := vclock.Layout{TIDBits: 8, ClockBits: 10}
	wide := vclock.WideClockLayout
	tb := stats.NewTable("benchmark", "rollovers/s", "exec time decrease (28-bit)", "shadow meta")
	// run is one full-CLEAN run of wl under the epoch layout l.
	run := func(wl workloads.Workload, l vclock.Layout, rep int) *clean.Report {
		r := runVariant(wl, scale, workloads.Modified, clean.Config{
			Seed: int64(rep), YieldEvery: ye, DeterministicSync: true,
			Detection: clean.DetectCLEAN, ClockBits: l.ClockBits, TIDBits: l.TIDBits,
		})
		if r.Err != nil {
			panic(fmt.Sprintf("table1: %s: %v", wl.Name, r.Err))
		}
		return r
	}
	for _, wl := range perfSuite() {
		// The narrow runs are fanned out by index so the per-rep rollover
		// counts can be summed afterwards without a shared accumulator.
		runs := ForEachIndexed(o.workers(), reps, func(rep int) *clean.Report {
			return run(wl, narrow, rep)
		})
		var rollovers uint64
		secs := make([]float64, 0, reps)
		for _, r := range runs {
			rollovers += r.Stats.Rollovers
			secs = append(secs, r.Elapsed.Seconds())
		}
		narrowT := stats.Mean(secs)
		if rollovers == 0 {
			continue
		}
		wideT, _ := meanSeconds(o.workers(), reps, func(rep int) time.Duration {
			return run(wl, wide, rep).Elapsed
		})
		perSec := float64(rollovers) / float64(reps) / narrowT
		decrease := (narrowT - wideT) / narrowT * 100
		// Footprint of the rep-0 run (deterministic under detSync): how
		// much of the adaptive shadow the workload left expanded at exit.
		fp := runs[0].Footprint
		tb.AddRow(wl.Name, perSec, fmt.Sprintf("%.1f%%", decrease),
			fmt.Sprintf("%dpg/%dexp/%.1fKiB", fp.MappedPages, fp.LinesExpanded,
				float64(fp.MetadataBytes)/1024))
	}
	fmt.Fprintln(w, "clock widths: default 10 bits (scaled from the paper's 23), wide 28 bits")
	_, err := fmt.Fprint(w, tb.String())
	return err
}

// Ablation substantiates the §7 comparison: on the same workloads, CLEAN's
// detector against full FastTrack (precise, detects WAR) and the TSan-like
// imprecise detector. Reports wall time normalized to no detection, plus
// FastTrack's metadata footprint relative to CLEAN's fixed 4 bytes/byte.
func Ablation(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleNative)
	reps := o.reps(3)
	ye := o.yieldEvery()
	tb := stats.NewTable("benchmark", "clean", "fasttrack", "tsanlite", "FT meta ×CLEAN")
	var cl, ft, ts []float64
	for _, wl := range perfSuite() {
		base, _ := meanSeconds(o.workers(), reps, func(rep int) time.Duration {
			return runVariant(wl, scale, workloads.Modified, clean.Config{Seed: int64(rep), YieldEvery: ye}).Elapsed
		})
		time1 := func(d clean.Detection) float64 {
			m, _ := meanSeconds(o.workers(), reps, func(rep int) time.Duration {
				r := runVariant(wl, scale, workloads.Modified, clean.Config{
					Seed: int64(rep), YieldEvery: ye, Detection: d,
				})
				if r.Err != nil {
					panic(fmt.Sprintf("ablation: %s: %v", wl.Name, r.Err))
				}
				return r.Elapsed
			})
			return m
		}
		cN := time1(clean.DetectCLEAN) / base
		fN := time1(clean.DetectFastTrack) / base
		tN := time1(clean.DetectTSanLite) / base
		// Metadata comparison from single runs, each footprint read at run
		// end: the adaptive region charges one epoch per compact line plus
		// per-byte entries only for expanded lines.
		rf := runVariant(wl, scale, workloads.Modified, clean.Config{YieldEvery: ye, Detection: clean.DetectFastTrack})
		rc := runVariant(wl, scale, workloads.Modified, clean.Config{YieldEvery: ye, Detection: clean.DetectCLEAN})
		if rf.Err != nil || rc.Err != nil {
			return fmt.Errorf("ablation: %s: %v / %v", wl.Name, rf.Err, rc.Err)
		}
		ratio := 0.0
		if cb := rc.Footprint.MetadataBytes; cb > 0 {
			ratio = float64(rf.Footprint.MetadataBytes) / float64(cb)
		}
		cl = append(cl, cN)
		ft = append(ft, fN)
		ts = append(ts, tN)
		tb.AddRow(wl.Name, cN, fN, tN, ratio)
	}
	tb.AddRow("average", stats.Mean(cl), stats.Mean(ft), stats.Mean(ts), "")
	_, err := fmt.Fprint(w, tb.String())
	return err
}
