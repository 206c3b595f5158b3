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
// full CLEAN with Kendo and checks that each turn check that reused the
// holder found for its scheduling step got the holder a fresh
// kendo.Holder scan finds. Fault plans that inject spurious condition
// wakes and thread crashes cover the places where participation changes
// between the scan and the check.
func TestStepHolderEqualsFreshScan(t *testing.T) {
	run := func(w workloads.Workload, seed int64, plan faults.Plan, tel bool) (machine.Stats, uint64) {
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
		reuses, mismatches := check()
		if mismatches > 0 {
			t.Errorf("%s seed %d plan %v: %d of %d step-holder reuses differ from a fresh scan",
				w.Name, seed, plan, mismatches, reuses)
		}
		return m.Stats(), reuses
	}

	var reuses, spurious, crashes uint64
	for _, w := range workloads.All() {
		for seed := int64(0); seed < 3; seed++ {
			st, n := run(w, seed, faults.Plan{}, seed == 1)
			reuses += n
			prof := faults.Profile{
				Ops:            st.Ops,
				Steps:          st.Steps,
				SharedAccesses: st.SharedAccesses(),
				SyncOps:        st.SyncOps,
				Threads:        workloads.NumThreads + 1,
			}
			for _, kind := range []faults.Kind{faults.SpuriousWakeup, faults.ThreadCrash, faults.LockHolderCrash} {
				st, n := run(w, seed, faults.PlanFor(kind, seed, prof), seed == 2)
				reuses += n
				spurious += st.SpuriousWakes
				crashes += st.Crashes
			}
		}
	}
	if reuses == 0 {
		t.Fatal("no turn check reused its step's holder")
	}
	if spurious == 0 || crashes == 0 {
		t.Fatalf("fault plans fired %d spurious wakes and %d crashes; want both", spurious, crashes)
	}
	t.Logf("%d step-holder reuses, %d spurious wakes, %d crashes", reuses, spurious, crashes)
}
