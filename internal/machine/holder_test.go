package machine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestStepHolderEqualsFreshScan runs every kernel at test scale under
// full CLEAN with Kendo and checks that every Kendo turn check the
// machine makes, each grant and each refusal, used the holder a fresh
// kendo.Holder scan finds. Fault plans that inject spurious condition
// wakes and thread crashes cover the places where participation changes
// between the step's scan and the check.
func TestStepHolderEqualsFreshScan(t *testing.T) {
	type counts struct{ grants, refusals uint64 }
	run := func(w workloads.Workload, seed int64, plan faults.Plan, tel bool) (machine.Stats, counts) {
		t.Helper()
		variant := workloads.Modified
		if !w.HasModified {
			variant = workloads.Unmodified
		}
		cfg := machine.Config{
			Seed:       seed,
			DetSync:    true,
			Detector:   core.New(core.Config{}),
			YieldEvery: 1 + int(seed)*15,
			MaxSteps:   2_000_000,
			Injector:   faults.New(plan),
		}
		if tel {
			cfg.Metrics = telemetry.NewRegistry()
		}
		m := machine.New(cfg)
		check := machine.CheckStepHolder(m)
		root, _ := w.Build(m, workloads.ScaleTest, variant)
		m.Run(root) // races, deadlocks and orphaned locks are outcomes here, not failures
		grants, refusals, mismatches := check()
		if mismatches > 0 {
			t.Errorf("%s seed %d plan %v: %d of %d turn checks differ from a fresh scan",
				w.Name, seed, plan, mismatches, grants+refusals)
		}
		return m.Stats(), counts{grants, refusals}
	}

	var total counts
	var spurious, crashes uint64
	add := func(c counts) { total.grants += c.grants; total.refusals += c.refusals }
	for _, w := range workloads.All() {
		for seed := int64(0); seed < 3; seed++ {
			st, c := run(w, seed, faults.Plan{}, seed == 1)
			add(c)
			prof := faults.Profile{
				Ops:            st.Ops,
				Steps:          st.Steps,
				SharedAccesses: st.SharedAccesses(),
				SyncOps:        st.SyncOps,
				Threads:        workloads.NumThreads + 1,
			}
			for _, kind := range []faults.Kind{faults.SpuriousWakeup, faults.ThreadCrash, faults.LockHolderCrash} {
				st, c := run(w, seed, faults.PlanFor(kind, seed, prof), seed == 2)
				add(c)
				spurious += st.SpuriousWakes
				crashes += st.Crashes
			}
		}
	}
	if total.grants == 0 || total.refusals == 0 {
		t.Fatalf("%d grants and %d refusals checked; want both", total.grants, total.refusals)
	}
	if spurious == 0 || crashes == 0 {
		t.Fatalf("fault plans fired %d spurious wakes and %d crashes; want both", spurious, crashes)
	}
	t.Logf("%d grants, %d refusals, %d spurious wakes, %d crashes", total.grants, total.refusals, spurious, crashes)
}
