package main

import (
	"fmt"
	"reflect"
	"time"

	clean "repro"
	"repro/internal/core"
	"repro/internal/shadow"
	"repro/internal/workloads"
)

// kernelScale is the input size of the kernel workloads, the paper's
// choice for software performance.
const kernelScale = "native"

// fig6Config is one software configuration of the paper's Fig. 6. All
// four keep YieldEvery at 32, as the harness's Fig. 6 does.
func fig6Config(seed int64, detect, detsync bool) clean.Config {
	cfg := clean.Config{Seed: seed, DeterministicSync: detsync, YieldEvery: 32}
	if detect {
		cfg.Detection = clean.DetectCLEAN
	}
	return cfg
}

// fullConfig is full CLEAN: detection with Kendo on.
func fullConfig(seed int64) clean.Config { return fig6Config(seed, true, true) }

// resolveKernels looks the kernels up in the registry; each must have
// the modified, race-free variant the kernel workloads run.
func resolveKernels(names []string) ([]workloads.Workload, error) {
	ws := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("kernel %s is not in the registry", n)
		}
		if !w.HasModified {
			return nil, fmt.Errorf("kernel %s has no modified variant", n)
		}
		ws[i] = w
	}
	return ws, nil
}

// kernelChecker holds the truth a kernel run is checked against: every
// modified-variant run completes, and under Kendo a kernel's output hash
// is the same for every seed of the run (§6.2.2).
type kernelChecker struct {
	o      *outcome
	hashes map[string]uint64
}

func (c *kernelChecker) check(name string, cfg clean.Config, rep *clean.Report, err error) bool {
	switch {
	case err != nil:
		c.o.check(false, "%s seed %d: %v", name, cfg.Seed, err)
		return false
	case rep.Err != nil:
		c.o.check(false, "%s seed %d: modified variant did not complete: %v", name, cfg.Seed, rep.Err)
		return false
	case !cfg.DeterministicSync:
		c.o.check(true, "")
		return true
	}
	want, seen := c.hashes[name]
	if !seen {
		c.hashes[name] = rep.OutputHash
		want = rep.OutputHash
	}
	c.o.check(rep.OutputHash == want, "%s seed %d: output hash %#x differs from %#x under Kendo",
		name, cfg.Seed, rep.OutputHash, want)
	return rep.OutputHash == want
}

// kernelsWorkload runs full CLEAN over the kernels, one pass running
// each once.
func kernelsWorkload(names []string) func(*env, *outcome) error {
	return func(e *env, o *outcome) error {
		chk := &kernelChecker{o: o, hashes: make(map[string]uint64)}
		reps := setupReps
		if e.trace {
			reps = 1
		}
		var ws []workloads.Workload
		var setups []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			var err error
			if ws, err = resolveKernels(names); err != nil {
				return err
			}
			for k, w := range ws {
				cfg := fullConfig(derive(e.seed, warmupPass-r, k))
				rep, err := clean.RunWorkload(w.Name, kernelScale, true, cfg)
				chk.check(w.Name, cfg, rep, err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		if e.trace {
			return tracedKernels(e, o, chk, ws)
		}
		o.set("setup_s", medianOf(setups))

		var passes, ops []float64
		start := time.Now()
		deadline := start.Add(e.seconds)
		for p := 0; p == 0 || time.Now().Before(deadline); p++ {
			passStart := time.Now()
			for k, w := range ws {
				cfg := fullConfig(derive(e.seed, p, k))
				t := time.Now()
				rep, err := clean.RunWorkload(w.Name, kernelScale, true, cfg)
				ops = append(ops, millis(time.Since(t)))
				chk.check(w.Name, cfg, rep, err)
			}
			passes = append(passes, time.Since(passStart).Seconds())
		}
		elapsed := time.Since(start)
		pass, op := summarize(passes), summarize(ops)
		o.set("pass_s_p50", pass.median)
		o.set("job_ms_p50", meanOpMillis(pass.median, len(ws)))
		o.set("jobs_per_s", float64(len(ops))/elapsed.Seconds())
		o.printf("kernels %v at %s scale, full CLEAN (Kendo on, YieldEvery 32)", names, kernelScale)
		o.printf("pass: %s", pass.format("s"))
		o.printf("kernel run: %s", op.format("ms"))
		o.printf("setup: %d set-ups, %.4g s each at the median (each includes one warm-up pass)", len(setups), medianOf(setups))
		return nil
	}
}

// kernelPass accumulates one traced pass: every kernel under the four
// Fig. 6 configurations, plus the untraced full run the traced one is
// compared with.
type kernelPass struct {
	untraced, none, detsync, detect, traced time.Duration
	build, run                              time.Duration
	steps, noneSteps, waitYields, waitOps   uint64
	det                                     detectorTotals
}

// tracedKernels is the traced run of a kernel workload. Each kernel runs
// untraced under full CLEAN (the end-to-end operation), under the other
// three Fig. 6 configurations, and then traced under full CLEAN through
// a timed forwarding detector; the traced run must reproduce the
// untraced one's hash, counters and statistics exactly.
func tracedKernels(e *env, o *outcome, chk *kernelChecker, ws []workloads.Workload) error {
	tr := newTracer()
	var passes []kernelPass
	poolBefore := shadow.Global()
	start := time.Now()
	deadline := start.Add(e.seconds)
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		var kp kernelPass
		for k, w := range ws {
			seed := derive(e.seed, p, k)
			op := p*len(ws) + k

			s := tr.begin("untraced.full", op, -1)
			cfg := fullConfig(seed)
			ref, err := clean.RunWorkload(w.Name, kernelScale, true, cfg)
			kp.untraced += tr.end(s)
			if !chk.check(w.Name, cfg, ref, err) {
				continue
			}

			for _, c := range []struct {
				name            string
				detect, detsync bool
				into            *time.Duration
			}{
				{"config.none", false, false, &kp.none},
				{"config.detsync", false, true, &kp.detsync},
				{"config.detect", true, false, &kp.detect},
			} {
				cfg := fig6Config(seed, c.detect, c.detsync)
				s := tr.begin(c.name, op, -1)
				rep, err := clean.RunWorkload(w.Name, kernelScale, true, cfg)
				*c.into += tr.end(s)
				if chk.check(w.Name, cfg, rep, err) && !c.detect && !c.detsync {
					kp.noneSteps += rep.Stats.Steps
				}
			}

			got, err := tracedKernelRun(tr, op, w, seed, &kp)
			o.check(err == nil, "%s seed %d traced: %v", w.Name, seed, err)
			if err != nil {
				continue
			}
			o.check(got.hash == ref.OutputHash && got.stats == ref.Stats && reflect.DeepEqual(got.counters, ref.FinalCounters),
				"%s seed %d: traced run differs from untraced (hash %#x vs %#x, stats %+v vs %+v)",
				w.Name, seed, got.hash, ref.OutputHash, got.stats, ref.Stats)
		}
		passes = append(passes, kp)
	}
	poolAfter := shadow.Global()

	pm := func(f func(kp kernelPass) float64) float64 { return passMedian(passes, f) }
	base := pm(func(kp kernelPass) float64 { return kp.none.Seconds() })
	o.set("machine.steps", pm(func(kp kernelPass) float64 { return float64(kp.steps) }))
	o.set("machine.base_s", base)
	o.set("machine.ns_per_step", pm(func(kp kernelPass) float64 { return ratio(float64(kp.none), float64(kp.noneSteps)) }))
	o.set("machine.self_s", pm(func(kp kernelPass) float64 { return (kp.run - kp.det.spent).Seconds() }))
	o.set("workloads.build_s", pm(func(kp kernelPass) float64 { return kp.build.Seconds() }))
	dets := make([]detectorTotals, len(passes))
	for i, kp := range passes {
		dets[i] = kp.det
	}
	setDetectorMetrics(o, dets, poolHitRate(poolBefore, poolAfter))
	printClockShare(o, dets)
	o.set("kendo.overhead_s", pm(func(kp kernelPass) float64 { return (kp.detsync - kp.none).Seconds() }))
	o.set("kendo.wait_yields", pm(func(kp kernelPass) float64 { return float64(kp.waitYields) }))
	o.set("kendo.wait_ops", pm(func(kp kernelPass) float64 { return float64(kp.waitOps) }))
	o.set("fig6.detect_x", pm(func(kp kernelPass) float64 { return ratio(float64(kp.detect), float64(kp.none)) }))
	o.set("fig6.detsync_x", pm(func(kp kernelPass) float64 { return ratio(float64(kp.detsync), float64(kp.none)) }))
	o.set("fig6.full_x", pm(func(kp kernelPass) float64 { return ratio(float64(kp.untraced), float64(kp.none)) }))

	traced := pm(func(kp kernelPass) float64 { return kp.traced.Seconds() })
	untraced := pm(func(kp kernelPass) float64 { return kp.untraced.Seconds() })
	o.set("trace.pass_overhead_s", traced-untraced)
	o.set("trace.job_overhead_ms", meanOpMillis(traced, len(ws))-meanOpMillis(untraced, len(ws)))

	o.printf("traced %d passes of %d kernels; per-pass medians, Fig. 6 base %.4g s", len(passes), len(ws), base)
	return finishTrace(e, o, tr)
}

// kernelRunResult is what a traced run must reproduce.
type kernelRunResult struct {
	hash     uint64
	stats    clean.Stats
	counters []uint64
}

// tracedKernelRun runs one kernel under full CLEAN with the timed
// detector and a metrics registry, recording build, run and release
// spans under one root.
func tracedKernelRun(tr *tracer, op int, w workloads.Workload, seed int64, kp *kernelPass) (kernelRunResult, error) {
	var res kernelRunResult
	cfg := fullConfig(seed)
	reg := clean.NewMetrics()
	cfg.Metrics = reg
	sc, err := workloads.ParseScale(kernelScale)
	if err != nil {
		return res, err
	}
	inner, ok := cfg.NewDetector().(*core.Detector)
	if !ok {
		return res, fmt.Errorf("full CLEAN detector is %T, not the core detector", cfg.NewDetector())
	}
	det := &timedDetector{inner: inner}

	root := tr.begin(rootName, op, -1)
	b := tr.begin("workloads.build", op, root)
	m := clean.NewMachineWithDetector(cfg, det)
	fn, out := w.Build(m, sc, workloads.Modified)
	kp.build += tr.end(b)

	r := tr.begin("machine.run", op, root)
	runErr := m.Run(fn)
	if runErr == nil {
		res.hash = m.HashMem(out.Addr, out.Len)
	}
	res.stats = m.Stats()
	res.counters = m.FinalCounters()
	kp.run += tr.end(r)
	tr.addAggregate("core.check", r, det.spent)

	rel := tr.begin("shadow.release", op, root)
	kp.det.add(det)
	m.ReleaseMetadata()
	tr.end(rel)
	kp.traced += tr.end(root)

	kp.steps += res.stats.Steps
	kp.waitYields += res.stats.DetWaitYields
	kp.waitOps += reg.Snapshot().Counters["kendo.wait_ops"]
	if runErr != nil {
		return res, fmt.Errorf("did not complete: %w", runErr)
	}
	return res, nil
}
