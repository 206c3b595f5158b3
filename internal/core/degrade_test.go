package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/vclock"
)

// TestFlippedBitDegradesToRepair is the resilience acceptance for the
// detector: a corrupted shadow epoch (here the reserved expand bit, the
// default ShadowBitFlip target) must be caught by the sanity check and
// degraded to a monitor-mode re-check — never surfaced as a spurious race
// exception on a race-free program.
func TestFlippedBitDegradesToRepair(t *testing.T) {
	for _, multibyte := range []bool{true, false} {
		det := New(Config{DisableMultibyte: !multibyte})
		plan := faults.Plan{Seed: 1, Injections: []faults.Injection{
			{Kind: faults.ShadowBitFlip, AtAccess: 3, Bit: 31},
		}}
		inj := faults.New(plan)
		m := machine.New(machine.Config{Seed: 1, Detector: det, Injector: inj})
		a := m.AllocShared(8, 8)
		l := m.NewMutex()
		err := m.Run(func(th *machine.Thread) {
			c := th.Spawn(func(c *machine.Thread) {
				c.Lock(l)
				c.StoreU64(a, 1)
				c.Unlock(l)
			})
			th.Join(c)
			// Properly ordered accesses after the flip: without the
			// sanity layer the corrupted epoch would look like a write
			// from the future and raise a bogus exception here.
			th.Lock(l)
			th.StoreU64(a, 2)
			th.LoadU64(a)
			th.Unlock(l)
		})
		if err != nil {
			t.Fatalf("multibyte=%v: race-free run errored after bit flip: %v", multibyte, err)
		}
		if len(inj.Fired()) != 1 {
			t.Fatalf("multibyte=%v: flip did not fire: %v", multibyte, inj.Fired())
		}
		if det.Stats().MetadataRepairs == 0 {
			t.Errorf("multibyte=%v: MetadataRepairs = 0, want the flipped epoch repaired", multibyte)
		}
	}
}

// TestInFieldCorruptionOutOfBounds checks the two other sanity conditions:
// an epoch naming a thread that never existed, or a clock ahead of that
// thread's high-water mark, is repaired rather than trusted.
func TestInFieldCorruptionOutOfBounds(t *testing.T) {
	layout := vclock.DefaultLayout
	det := New(Config{})
	m := machine.New(machine.Config{Seed: 2, Detector: det})
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *machine.Thread) {
		th.StoreU64(a, 1)
		// Corrupt the epochs directly: a tid far beyond any allocated
		// thread, with a plausible clock.
		det.Epochs().StoreRange(a, 8, layout.Pack(200, 1))
		th.LoadU64(a)
	})
	if err != nil {
		t.Fatalf("run errored on out-of-bounds epoch: %v", err)
	}
	if det.Stats().MetadataRepairs == 0 {
		t.Error("MetadataRepairs = 0, want the out-of-bounds epoch repaired")
	}
}
