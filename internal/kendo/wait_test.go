package kendo_test

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// TestWaitForTurnObservedNilObserver: the machine's scheduler makes each
// Kendo wait, and telemetry observes it when configured. A wait with no
// observer must still wait: threads contending for a lock are refused the
// turn, and the run ends with the same schedule and the same final
// counters as the observed run.
func TestWaitForTurnObservedNilObserver(t *testing.T) {
	run := func(observed bool) (machine.Stats, []uint64) {
		t.Helper()
		cfg := machine.Config{Seed: 4, DetSync: true}
		if observed {
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Timeline = telemetry.NewTimeline()
		}
		m := machine.New(cfg)
		a := m.AllocShared(8, 8)
		l := m.NewMutex()
		err := m.Run(func(th *machine.Thread) {
			var kids []*machine.Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, th.Spawn(func(w *machine.Thread) {
					for k := 0; k < 6; k++ {
						w.Lock(l)
						w.StoreU64(a, w.LoadU64(a)+1)
						w.Unlock(l)
						w.Work(i + 1)
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			t.Fatalf("observed=%v: %v", observed, err)
		}
		return m.Stats(), m.FinalCounters()
	}
	sNil, cNil := run(false)
	sObs, cObs := run(true)
	if sNil.DetWaitYields == 0 {
		t.Fatal("no thread was refused the turn; the test needs contention")
	}
	if sNil != sObs {
		t.Errorf("stats differ without an observer:\nnil      %+v\nobserved %+v", sNil, sObs)
	}
	if !slices.Equal(cNil, cObs) {
		t.Errorf("final counters differ without an observer: %v vs %v", cNil, cObs)
	}
}
