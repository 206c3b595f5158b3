package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runWithin runs m under a deadline, so a scheduling decision that never
// hands the processor on fails the test instead of hanging it.
func runWithin(t *testing.T, m *Machine, root func(*Thread)) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- m.Run(root) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s")
		return nil
	}
}

// workers spawns n threads running body and joins them.
func workers(n int, body func(w *Thread, i int)) func(*Thread) {
	return func(th *Thread) {
		kids := make([]*Thread, n)
		for i := range kids {
			i := i
			kids[i] = th.Spawn(func(w *Thread) { body(w, i) })
		}
		for _, k := range kids {
			th.Join(k)
		}
	}
}

// TestSchedulerPanicIsContained: a Picker that returns an out-of-range
// index fails the run with ErrScheduler and a dump of the machine at that
// decision. At the first step the decision runs on Run's goroutine; at
// every later one it runs on the goroutine of the thread that yielded or
// finished, and must still end the run instead of hanging it.
func TestSchedulerPanicIsContained(t *testing.T) {
	for _, at := range []int{1, 2, 9, 40} {
		calls := 0
		m := New(Config{YieldEvery: 1, Picker: func(runnable []*Thread) int {
			calls++
			if calls == at {
				return len(runnable)
			}
			return calls % len(runnable)
		}})
		a := m.AllocShared(64, 8)
		err := runWithin(t, m, workers(3, func(w *Thread, i int) {
			for k := 0; k < 20; k++ {
				w.StoreU64(a+uint64(8*i), uint64(k))
			}
		}))
		var me *MachineError
		if !errors.As(err, &me) || me.Kind != ErrScheduler {
			t.Fatalf("Picker fails at call %d: err = %v, want an ErrScheduler MachineError", at, err)
		}
		if me.TID != -1 || me.Op != "schedule" || !strings.Contains(me.Msg, "Picker returned") {
			t.Errorf("call %d: error %+v does not describe the Picker failure", at, me)
		}
		if me.Dump == nil || me.Dump.Steps != uint64(at-1) || len(me.Dump.Decisions) != min(at-1, dumpDecisions) {
			t.Errorf("call %d: dump %+v, want the machine after %d dispatched steps", at, me.Dump, at-1)
		}
	}
}

// TestSchedulerPanicValueIsKept: a Picker that panics outright is
// contained the same way, with its panic value.
func TestSchedulerPanicValueIsKept(t *testing.T) {
	calls := 0
	m := New(Config{Picker: func(runnable []*Thread) int {
		if calls++; calls == 5 {
			panic("picker gave up")
		}
		return 0
	}})
	err := runWithin(t, m, workers(2, func(w *Thread, _ int) { w.Work(1); w.Work(1) }))
	var me *MachineError
	if !errors.As(err, &me) || me.Kind != ErrScheduler || me.PanicValue != "picker gave up" {
		t.Fatalf("err = %#v, want ErrScheduler carrying the Picker's panic value", err)
	}
}

// TestStoppedRunUnwindsEveryThread: whatever stops a run — a race
// exception, a thread's injected death that orphans a lock, a deadlock,
// an exhausted step budget — Run returns the error the machine has always
// reported for that program and seed, and every thread goroutine has
// exited: none is left parked at a scheduling point.
func TestStoppedRunUnwindsEveryThread(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		root func(m *Machine) func(*Thread)
		want string
	}{
		{
			name: "race exception",
			cfg:  Config{Seed: 3, Detector: &stopDetector{k: 25}},
			root: func(m *Machine) func(*Thread) {
				a := m.AllocShared(64, 8)
				l := m.NewMutex()
				return workers(3, func(w *Thread, i int) {
					for k := 0; k < 20; k++ {
						w.Lock(l)
						w.StoreU64(a+uint64(8*i), uint64(k))
						w.Unlock(l)
					}
				})
			},
			want: "stop: RAW race at 0x8 (8 bytes): thread 2 conflicts with thread 0@0",
		},
		{
			name: "injected crash",
			cfg:  Config{Seed: 2, DetSync: true, Injector: &stubInjector{crashTID: 2, crashOnAcquire: 3}},
			root: func(m *Machine) func(*Thread) {
				l := m.NewMutex()
				return workers(3, func(w *Thread, _ int) {
					for k := 0; k < 10; k++ {
						w.Lock(l)
						w.Work(3)
						w.Unlock(l)
					}
				})
			},
			want: "machine: orphaned-lock: thread 3 in lock: mutex 1 orphaned by crashed thread 2 (seq 2)",
		},
		{
			name: "deadlock",
			cfg:  Config{Seed: 1},
			root: func(m *Machine) func(*Thread) {
				l := m.NewMutex()
				c := m.NewCond()
				return workers(3, func(w *Thread, _ int) {
					w.Lock(l)
					w.CondWait(c, l) // never signalled
					w.Unlock(l)
				})
			},
			want: "machine: deadlock: threads [0 1 2 3] blocked",
		},
		{
			name: "livelock",
			cfg:  Config{Seed: 4, DetSync: true, MaxSteps: 500},
			root: func(m *Machine) func(*Thread) {
				l := m.NewMutex()
				return workers(3, func(w *Thread, _ int) {
					for {
						w.Lock(l)
						w.Work(2)
						w.Unlock(l)
					}
				})
			},
			want: "machine: livelock: step budget 500 exhausted; thread 0 starved at counter 3",
		},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		m := New(c.cfg)
		err := runWithin(t, m, c.root(m))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.name, err, c.want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still running after Run returned, %d before",
					c.name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
