package machine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// stubInjector is a programmable machine.Injector for tests. The zero
// value injects nothing.
type stubInjector struct {
	crashTID           int // crash this thread ...
	crashAtCounter     uint64
	crashOnAcquire     uint64 // ... or at its n-th mutex acquisition
	spuriousAtStep     uint64 // wake a cond waiter at/after this step (one-shot)
	spuriousFired      bool
	stallTID           int
	stallFrom, stallTo uint64
	sharedAccesses     uint64
}

func (s *stubInjector) Crash(tid int, counter uint64) bool {
	return s.crashAtCounter > 0 && tid == s.crashTID && counter >= s.crashAtCounter
}

func (s *stubInjector) CrashOnAcquire(tid int, n uint64) bool {
	return s.crashOnAcquire > 0 && tid == s.crashTID && n >= s.crashOnAcquire
}

func (s *stubInjector) StallDispatch(step uint64, tid int) bool {
	return s.stallTo > 0 && tid == s.stallTID && step >= s.stallFrom && step < s.stallTo
}

func (s *stubInjector) SpuriousWake(step uint64, tid int) bool {
	if s.spuriousAtStep > 0 && !s.spuriousFired && step >= s.spuriousAtStep {
		s.spuriousFired = true
		return true
	}
	return false
}

func (s *stubInjector) OnSharedAccess(n, addr uint64, _ Detector) { s.sharedAccesses = n }

func TestLivelockErrorNamesStarvedThread(t *testing.T) {
	// Spinners burn the budget under Kendo while one thread waits on a
	// condition nobody signals: the watchdog must trip and name a starved
	// thread with its deterministic counter.
	m := New(Config{Seed: 5, DetSync: true, MaxSteps: 2000})
	l := m.NewMutex()
	c := m.NewCond()
	err := m.Run(func(th *Thread) {
		th.Spawn(func(w *Thread) {
			w.Lock(l)
			w.CondWait(c, l) // never signalled
			w.Unlock(l)
		})
		for {
			th.Work(10)
		}
	})
	var live *LivelockError
	if !errors.As(err, &live) {
		t.Fatalf("err = %v, want LivelockError", err)
	}
	if live.Steps != 2000 {
		t.Errorf("Steps = %d, want the 2000 budget", live.Steps)
	}
	if live.StarvedTID < 0 {
		t.Errorf("StarvedTID = %d, want a named thread", live.StarvedTID)
	}
	if live.Dump == nil || len(live.Dump.Threads) == 0 {
		t.Fatalf("LivelockError carries no diagnostic dump: %+v", live.Dump)
	}
	msg := err.Error()
	if !strings.Contains(msg, "livelock") || !strings.Contains(msg, "starved") {
		t.Errorf("message %q should name the livelock and the starved thread", msg)
	}
}

func TestDeadlockUnderKendoReportsBlockedThreads(t *testing.T) {
	// A condition wait nobody will ever signal, under deterministic
	// sync: the waiter and the joining root both block, nothing is
	// runnable, and the machine must report a DeadlockError naming them.
	m := New(Config{Seed: 2, DetSync: true})
	l := m.NewMutex()
	c := m.NewCond()
	err := m.Run(func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			w.Lock(l)
			w.CondWait(c, l) // never signalled
			w.Unlock(l)
		})
		th.Join(w)
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Errorf("Blocked = %v, want the cond waiter and the joining root", dl.Blocked)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("message %q should say deadlock", err)
	}
}

func TestKendoABBALivelockCaughtByWatchdog(t *testing.T) {
	// Classic AB-BA, made certain by a barrier between the first and
	// second acquisitions. Under Kendo a mutex waiter does not block — it
	// deterministically retries, advancing its counter — so the cycle
	// manifests as a livelock that only the MaxSteps watchdog can end.
	m := New(Config{Seed: 11, DetSync: true, MaxSteps: 50_000})
	a, b := m.NewMutex(), m.NewMutex()
	bar := m.NewBarrier(2)
	err := m.Run(func(th *Thread) {
		c1 := th.Spawn(func(c *Thread) {
			c.Lock(a)
			c.BarrierWait(bar) // both first locks are now held
			c.Lock(b)
			c.Unlock(b)
			c.Unlock(a)
		})
		c2 := th.Spawn(func(c *Thread) {
			c.Lock(b)
			c.BarrierWait(bar)
			c.Lock(a)
			c.Unlock(a)
			c.Unlock(b)
		})
		th.Join(c1)
		th.Join(c2)
	})
	var live *LivelockError
	if !errors.As(err, &live) {
		t.Fatalf("err = %v, want LivelockError (Kendo turns AB-BA into starvation)", err)
	}
	if live.StarvedTID < 0 {
		t.Errorf("StarvedTID = %d, want a named starved thread", live.StarvedTID)
	}
	if live.Dump == nil {
		t.Error("LivelockError carries no diagnostic dump")
	}
}

func TestMisuseErrorsAreStructured(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *Machine) error
		want string
	}{
		{"double-unlock", func(m *Machine) error {
			l := m.NewMutex()
			return m.Run(func(th *Thread) {
				th.Lock(l)
				th.Unlock(l)
				th.Unlock(l)
			})
		}, "unlock"},
		{"wait-without-lock", func(m *Machine) error {
			l := m.NewMutex()
			c := m.NewCond()
			return m.Run(func(th *Thread) { th.CondWait(c, l) })
		}, "without holding"},
		{"double-join", func(m *Machine) error {
			return m.Run(func(th *Thread) {
				c := th.Spawn(func(c *Thread) { c.Work(1) })
				th.Join(c)
				th.Join(c)
			})
		}, "joined twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(New(Config{Seed: 1}))
			var merr *MachineError
			if !errors.As(err, &merr) {
				t.Fatalf("err = %v (%T), want *MachineError", err, err)
			}
			if merr.Kind != ErrMisuse {
				t.Errorf("Kind = %v, want ErrMisuse", merr.Kind)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("message %q should contain %q", err, tc.want)
			}
			if merr.Dump == nil {
				t.Error("misuse error carries no diagnostic dump")
			}
		})
	}
}

func TestPanicContainedWithDump(t *testing.T) {
	m := New(Config{Seed: 3})
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			c.Work(5)
			panic("simulated workload bug")
		})
		th.Join(c)
	})
	var merr *MachineError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v (%T), want *MachineError", err, err)
	}
	if merr.Kind != ErrPanic {
		t.Errorf("Kind = %v, want ErrPanic", merr.Kind)
	}
	if merr.PanicValue != "simulated workload bug" {
		t.Errorf("PanicValue = %v, want the panic value", merr.PanicValue)
	}
	if merr.Dump == nil || len(merr.Dump.Threads) == 0 {
		t.Fatal("panic error carries no diagnostic dump")
	}
	if len(merr.Dump.Decisions) == 0 {
		t.Error("dump records no scheduler decisions")
	}
}

func TestInjectedCrashOrphansLockAndIsDetected(t *testing.T) {
	// The injected lock-holder death must not take the machine down; the
	// next thread to want the mutex observes the orphan as a structured
	// error (EOWNERDEAD semantics).
	inj := &stubInjector{crashTID: 1, crashOnAcquire: 1}
	m := New(Config{Seed: 4, Injector: inj})
	l := m.NewMutex()
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			c.Lock(l) // crashes here, holding l
			c.Unlock(l)
		})
		th.Join(c) // the crashed thread is still joinable
		th.Lock(l)
		th.Unlock(l)
	})
	var merr *MachineError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v (%T), want *MachineError", err, err)
	}
	if merr.Kind != ErrOrphanedLock {
		t.Errorf("Kind = %v, want ErrOrphanedLock", merr.Kind)
	}
	if !strings.Contains(err.Error(), "orphaned") {
		t.Errorf("message %q should report the orphaned mutex", err)
	}
	if m.Stats().Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", m.Stats().Crashes)
	}
	if merr.Dump == nil || len(merr.Dump.Orphans) != 1 {
		t.Fatalf("dump should list the orphaned mutex: %+v", merr.Dump)
	}
	if merr.Dump.Orphans[0].HolderID != 1 {
		t.Errorf("orphan holder = %d, want the crashed tid 1", merr.Dump.Orphans[0].HolderID)
	}
}

func TestInjectedCrashMidRunIsSurvivable(t *testing.T) {
	// A thread killed mid-SFR while holding nothing: the rest of the run
	// completes normally.
	inj := &stubInjector{crashTID: 1, crashAtCounter: 50}
	m := New(Config{Seed: 6, Injector: inj})
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			for i := 0; i < 1000; i++ {
				c.Work(1)
			}
		})
		th.Join(c)
		th.StoreU64(a, 7)
	})
	if err != nil {
		t.Fatalf("crash of a lock-free thread should be survivable, got %v", err)
	}
	if m.Stats().Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", m.Stats().Crashes)
	}
}

func TestSpuriousWakeupIsHarmless(t *testing.T) {
	// A cond waiter woken without a signal must re-check its predicate
	// and wait again; the run still completes with the right value.
	inj := &stubInjector{spuriousAtStep: 1}
	m := New(Config{Seed: 7, Injector: inj})
	a := m.AllocShared(8, 8)
	l := m.NewMutex()
	c := m.NewCond()
	err := m.Run(func(th *Thread) {
		w := th.Spawn(func(w *Thread) {
			w.Lock(l)
			for w.LoadU64(a) == 0 {
				w.CondWait(c, l)
			}
			w.Unlock(l)
		})
		th.Work(200) // give the waiter time to block (and be woken spuriously)
		th.Lock(l)
		th.StoreU64(a, 1)
		th.Signal(c)
		th.Unlock(l)
		th.Join(w)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := m.Stats().SpuriousWakes; got != 1 {
		t.Errorf("SpuriousWakes = %d, want 1", got)
	}
}

func TestSchedulerStallBurnsStepsNotProgress(t *testing.T) {
	inj := &stubInjector{stallTID: 1, stallFrom: 1, stallTo: 100}
	m := New(Config{Seed: 8, Injector: inj})
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) { c.Work(50) })
		th.Join(c)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Stats().StalledSteps == 0 {
		t.Error("StalledSteps = 0, want the stall window to be counted")
	}
}

func TestEpochSaneRejectsCorruptEpochs(t *testing.T) {
	layout := vclock.DefaultLayout
	m := New(Config{Seed: 9, Layout: layout})
	l := m.NewMutex()
	if err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			c.Lock(l)
			c.Unlock(l)
		})
		th.Lock(l)
		th.Unlock(l)
		th.Join(c)
	}); err != nil {
		t.Fatal(err)
	}
	if !m.EpochSane(0) {
		t.Error("zero epoch must be sane")
	}
	good := layout.Pack(0, 1)
	if !m.EpochSane(good) {
		t.Errorf("epoch %v of a live thread must be sane", good)
	}
	if m.EpochSane(good | 1<<31) {
		t.Error("reserved expand bit set: must be rejected")
	}
	if m.EpochSane(layout.Pack(99, 1)) {
		t.Error("never-allocated tid: must be rejected")
	}
	if m.EpochSane(layout.Pack(0, layout.MaxClock())) {
		t.Error("clock beyond the thread's high-water mark: must be rejected")
	}
}

func TestMachineErrorKindStrings(t *testing.T) {
	for kind, want := range map[MachineErrorKind]string{
		ErrPanic: "panic", ErrMisuse: "misuse", ErrOrphanedLock: "orphaned-lock",
		ErrConfig: "config", ErrScheduler: "scheduler",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", kind, got, want)
		}
	}
}
