package main

import (
	"fmt"
	"reflect"
	"time"

	clean "repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/shadow"
	"repro/internal/workloads"
)

// predictScale is the input size predict-suite predicts at.
const predictScale = "test"

type predictKernel struct {
	w      workloads.Workload
	target predict.Target
	racy   bool
}

// resolvePredictKernels builds the 26 unmodified targets and checks the
// registry's racy flags against the paper's classification.
func resolvePredictKernels() ([]predictKernel, error) {
	if n := len(workloads.All()); n != len(allKernels) {
		return nil, fmt.Errorf("registry has %d kernels, the paper's roster %d", n, len(allKernels))
	}
	sc, err := workloads.ParseScale(predictScale)
	if err != nil {
		return nil, err
	}
	ks := make([]predictKernel, len(allKernels))
	for i, n := range allKernels {
		w, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("kernel %s is not in the registry", n)
		}
		if w.Racy != paperRacy[n] {
			return nil, fmt.Errorf("registry marks %s racy=%v; the paper's classification says %v", n, w.Racy, paperRacy[n])
		}
		ks[i] = predictKernel{w: w, target: predict.WorkloadTarget(w, sc, workloads.Unmodified), racy: paperRacy[n]}
	}
	return ks, nil
}

// checkPrediction checks one prediction against the truth: the
// recording completes, every returned race is certified, and a kernel
// the paper classifies as race-free gets none.
func checkPrediction(o *outcome, k predictKernel, seed int64, r *predict.Result) bool {
	ok := r.Recording.Err == nil
	if ok {
		for _, p := range r.Predictions {
			ok = ok && p.Certified
		}
	}
	ok = ok && (k.racy || len(r.Predictions) == 0)
	o.check(ok, "predict %s seed %d: recording error %v, %d predictions on a kernel the paper classifies racy=%v",
		k.w.Name, seed, r.Recording.Err, len(r.Predictions), k.racy)
	return ok
}

// predictionDigest is what two predictions of one kernel under one seed
// must agree on.
type predictionDigest struct {
	recordSteps, replaySteps          uint64
	events                            int
	candidates, feasible, uncertified int
	races                             []string
}

func digestPrediction(r *predict.Result) predictionDigest {
	d := predictionDigest{
		recordSteps: r.RecordSteps, replaySteps: r.ReplaySteps, events: r.Recording.Events,
		candidates: r.Candidates, feasible: r.Feasible, uncertified: r.Uncertified,
	}
	for _, p := range r.Predictions {
		d.races = append(d.races, fmt.Sprintf("%v@%#x:%#x", p.Kind, p.Race.Addr, p.Hash))
	}
	return d
}

// predictSuite predicts races in all 26 unmodified kernels, one pass
// predicting each once; the recording seed derives from the run's seed,
// the pass and the kernel.
func predictSuite(e *env, o *outcome) error {
	reps := setupReps
	if e.trace {
		reps = 1
	}
	var ks []predictKernel
	var setups []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		var err error
		if ks, err = resolvePredictKernels(); err != nil {
			return err
		}
		// Warm-up records every kernel once: the recording machine and
		// the workloads' builders, without the analysis.
		for i, k := range ks {
			seed := derive(e.seed, warmupPass-r, i)
			rec := predict.Record(k.target, predict.Options{Seed: seed})
			o.check(rec.Err == nil, "record %s seed %d: %v", k.w.Name, seed, rec.Err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if e.trace {
		return tracedPredict(e, o, ks)
	}
	o.set("setup_s", medianOf(setups))

	racy := 0
	for _, k := range ks {
		if k.racy {
			racy++
		}
	}
	var passes, ops, recalls []float64
	start := time.Now()
	deadline := start.Add(e.seconds)
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		passStart := time.Now()
		found := 0
		for i, k := range ks {
			seed := derive(e.seed, p, i)
			t := time.Now()
			r := predict.Run(k.target, predict.Options{Seed: seed})
			ops = append(ops, millis(time.Since(t)))
			if checkPrediction(o, k, seed, r) && k.racy && len(r.Predictions) > 0 {
				found++
			}
		}
		passes = append(passes, time.Since(passStart).Seconds())
		recalls = append(recalls, float64(found)/float64(racy))
	}
	elapsed := time.Since(start)
	pass, op := summarize(passes), summarize(ops)
	o.set("pass_s_p50", pass.median)
	o.set("job_ms_p50", meanOpMillis(pass.median, len(ks)))
	o.set("jobs_per_s", float64(len(ops))/elapsed.Seconds())
	var recall float64
	for _, r := range recalls {
		recall += r / float64(len(recalls))
	}
	o.set("recall", recall)
	o.printf("%d unmodified kernels at %s scale, predict.Run with seeded recordings", len(ks), predictScale)
	o.printf("pass: %s", pass.format("s"))
	o.printf("prediction: %s", op.format("ms"))
	o.printf("recall: %.4g of the paper's %d racy kernels certified per pass, mean over %d passes", recall, racy, len(recalls))
	o.printf("setup: %d set-ups, %.4g s each at the median (each records every kernel once)", len(setups), medianOf(setups))
	return nil
}

// predictPass accumulates one traced pass over all kernels.
type predictPass struct {
	untraced, traced, record, build, base time.Duration
	baseSteps, steps, replaySteps         uint64
	replays, candidates, feasible, found  int
	det                                   detectorTotals
}

// tracedPredict is the traced run of predict-suite. Each kernel is
// predicted untraced (the end-to-end operation), run once with no
// detector and no Kendo (the machine's base cost), and then traced: the
// recording alone, followed by predict.Run through a target whose Build
// is timed and a detector factory returning timed detectors. The traced
// prediction must match the untraced one exactly.
func tracedPredict(e *env, o *outcome, ks []predictKernel) error {
	tr := newTracer()
	var passes []predictPass
	poolBefore := shadow.Global()
	start := time.Now()
	deadline := start.Add(e.seconds)
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		var pp predictPass
		for i, k := range ks {
			seed := derive(e.seed, p, i)
			op := p*len(ks) + i
			opts := predict.Options{Seed: seed}

			s := tr.begin("untraced.predict", op, -1)
			ref := predict.Run(k.target, opts)
			pp.untraced += tr.end(s)
			if !checkPrediction(o, k, seed, ref) {
				continue
			}

			s = tr.begin("config.none", op, -1)
			rep, err := clean.RunWorkload(k.w.Name, predictScale, false, clean.Config{Seed: seed})
			pp.base += tr.end(s)
			if err == nil {
				err = rep.Err
			}
			o.check(err == nil, "%s seed %d without a detector: %v", k.w.Name, seed, err)
			if err == nil {
				pp.baseSteps += rep.Stats.Steps
			}

			got := tracedPrediction(tr, op, k, opts, &pp)
			want := digestPrediction(ref)
			o.check(reflect.DeepEqual(got, want), "predict %s seed %d: traced prediction %+v differs from untraced %+v",
				k.w.Name, seed, got, want)
		}
		passes = append(passes, pp)
	}
	poolAfter := shadow.Global()

	pm := func(f func(pp predictPass) float64) float64 { return passMedian(passes, f) }
	o.set("machine.steps", pm(func(pp predictPass) float64 { return float64(pp.steps) }))
	o.set("machine.base_s", pm(func(pp predictPass) float64 { return pp.base.Seconds() }))
	o.set("machine.ns_per_step", pm(func(pp predictPass) float64 { return ratio(float64(pp.base), float64(pp.baseSteps)) }))
	o.set("machine.self_s", pm(func(pp predictPass) float64 { return (pp.traced - pp.build - pp.det.spent).Seconds() }))
	o.set("workloads.build_s", pm(func(pp predictPass) float64 { return pp.build.Seconds() }))
	dets := make([]detectorTotals, len(passes))
	for i, pp := range passes {
		dets[i] = pp.det
	}
	setDetectorMetrics(o, dets, poolHitRate(poolBefore, poolAfter))
	printClockShare(o, dets)
	o.set("predict.record_s", pm(func(pp predictPass) float64 { return pp.record.Seconds() }))
	o.set("predict.analyze_s", pm(func(pp predictPass) float64 { return (pp.untraced - pp.record).Seconds() }))
	o.set("predict.replays", pm(func(pp predictPass) float64 { return float64(pp.replays) }))
	o.set("predict.replay_steps", pm(func(pp predictPass) float64 { return float64(pp.replaySteps) }))
	o.set("predict.replay_check_s", pm(func(pp predictPass) float64 { return pp.det.spent.Seconds() }))
	o.set("predict.candidates", pm(func(pp predictPass) float64 { return float64(pp.candidates) }))
	o.set("predict.feasible", pm(func(pp predictPass) float64 { return float64(pp.feasible) }))
	o.set("predict.certified", pm(func(pp predictPass) float64 { return float64(pp.found) }))
	o.set("predict.useful_ratio", pm(func(pp predictPass) float64 { return ratio(float64(pp.found), float64(pp.feasible)) }))

	traced := pm(func(pp predictPass) float64 { return pp.traced.Seconds() })
	untraced := pm(func(pp predictPass) float64 { return pp.untraced.Seconds() })
	o.set("trace.pass_overhead_s", traced-untraced)
	o.set("trace.job_overhead_ms", meanOpMillis(traced, len(ks))-meanOpMillis(untraced, len(ks)))
	o.printf("traced %d passes of %d kernels; per-pass medians", len(passes), len(ks))
	return finishTrace(e, o, tr)
}

// tracedPrediction records the kernel alone, then predicts it through
// the timed target and detector factory, all under one root span, and
// returns the prediction's digest.
func tracedPrediction(tr *tracer, op int, k predictKernel, opts predict.Options, pp *predictPass) predictionDigest {
	root := tr.begin(rootName, op, -1)
	s := tr.begin("predict.record", op, root)
	predict.Record(k.target, opts)
	pp.record += tr.end(s)

	run := tr.begin("predict.run", op, root)
	target := predict.Target{Build: func(m *machine.Machine) (func(*machine.Thread), uint64, int) {
		b := tr.begin("workloads.build", op, run)
		fn, addr, n := k.target.Build(m)
		pp.build += tr.end(b)
		return fn, addr, n
	}}
	var dets []*timedDetector
	opts.Detector = func() machine.Detector {
		d := &timedDetector{inner: core.New(core.Config{})}
		dets = append(dets, d)
		return d
	}
	res := predict.Run(target, opts)
	pp.traced += tr.end(run)
	var spent time.Duration
	for _, dd := range dets {
		pp.det.add(dd)
		spent += dd.spent
	}
	tr.addAggregate("core.check", run, spent)
	tr.end(root)

	pp.steps += res.Steps()
	pp.replaySteps += res.ReplaySteps
	pp.replays += len(dets)
	pp.candidates += res.Candidates
	pp.feasible += res.Feasible
	pp.found += len(res.Predictions)
	return digestPrediction(res)
}
