package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vclock"
)

func expectRunError(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want message containing %q", err, substr)
	}
}

func TestSignalWithoutWaitersIsNoop(t *testing.T) {
	m := New(Config{})
	c := m.NewCond()
	if err := m.Run(func(th *Thread) {
		th.Signal(c)
		th.Broadcast(c)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCondWaitWithoutMutexIsError(t *testing.T) {
	m := New(Config{})
	l := m.NewMutex()
	c := m.NewCond()
	err := m.Run(func(th *Thread) {
		th.CondWait(c, l) // mutex not held
	})
	expectRunError(t, err, "without holding")
}

func TestJoinSelfIsError(t *testing.T) {
	m := New(Config{})
	err := m.Run(func(th *Thread) {
		th.Join(th)
	})
	expectRunError(t, err, "joining itself")
}

func TestDoubleJoinIsError(t *testing.T) {
	m := New(Config{})
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) { c.Work(1) })
		th.Join(c)
		th.Join(c)
	})
	expectRunError(t, err, "joined twice")
}

func TestMutexWrongMachineIsError(t *testing.T) {
	other := New(Config{})
	l := other.NewMutex()
	m := New(Config{})
	err := m.Run(func(th *Thread) {
		th.Lock(l)
	})
	expectRunError(t, err, "wrong machine")
}

func TestBarrierOfOneNeverBlocks(t *testing.T) {
	m := New(Config{})
	b := m.NewBarrier(1)
	if err := m.Run(func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.BarrierWait(b)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierZeroPanics(t *testing.T) {
	m := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) must panic")
		}
	}()
	m.NewBarrier(0)
}

func TestThreadCompareAndSwap(t *testing.T) {
	m := New(Config{})
	a := m.AllocShared(8, 8)
	if err := m.Run(func(th *Thread) {
		th.StoreU64(a, 5)
		if th.CompareAndSwap(a, 8, 4, 9) {
			t.Error("CAS with wrong expected value succeeded")
		}
		if !th.CompareAndSwap(a, 8, 5, 9) {
			t.Error("CAS with right expected value failed")
		}
		if got := th.LoadU64(a); got != 9 {
			t.Errorf("value = %d, want 9", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTooManyThreadsIsError(t *testing.T) {
	// 1-bit tid space: ids 0 and 1 only; the second concurrent spawn
	// must fail.
	m := New(Config{Layout: vclock.Layout{TIDBits: 1, ClockBits: 23}})
	err := m.Run(func(th *Thread) {
		a := th.Spawn(func(c *Thread) { c.Work(50) })
		b := th.Spawn(func(c *Thread) { c.Work(50) })
		th.Join(a)
		th.Join(b)
	})
	expectRunError(t, err, "exceeds layout capacity")
}

func TestTIDReuseAllowsManySequentialThreads(t *testing.T) {
	// With joins between spawns, a 1-bit tid space suffices for any
	// number of sequential children (§4.5 id reuse).
	m := New(Config{Layout: vclock.Layout{TIDBits: 1, ClockBits: 23}})
	if err := m.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			c := th.Spawn(func(c *Thread) { c.Work(3) })
			th.Join(c)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessBySizeHistogram(t *testing.T) {
	m := New(Config{})
	a := m.AllocShared(16, 8)
	if err := m.Run(func(th *Thread) {
		th.StoreU8(a, 1)
		th.StoreU32(a, 2)
		th.StoreU64(a, 3)
		th.LoadU64(a)
	}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.AccessBySize[1] != 1 || s.AccessBySize[4] != 1 || s.AccessBySize[8] != 2 {
		t.Fatalf("histogram = %v", s.AccessBySize)
	}
}

// fullTracer counts every tracer callback and logs the sync events.
type fullTracer struct {
	accesses, syncs, workUnits int
	log                        []string
}

func (f *fullTracer) Access(t *Thread, addr uint64, size int, write, shared bool) {
	f.accesses++
}
func (f *fullTracer) Sync(t *Thread, kind SyncEvent, obj uint64, pos, capacity int) {
	f.syncs++
	f.log = append(f.log, fmt.Sprintf("seq%d %v %d/%d", t.Seq, kind, pos, capacity))
}
func (f *fullTracer) Work(t *Thread, n int) { f.workUnits += n }

func TestTracerReceivesAllEventKinds(t *testing.T) {
	tr := &fullTracer{}
	m := New(Config{Tracer: tr})
	a := m.AllocShared(8, 8)
	l := m.NewMutex()
	if err := m.Run(func(th *Thread) {
		th.Work(7)
		th.StoreU64(a, 1)
		th.Lock(l)
		th.Unlock(l)
	}); err != nil {
		t.Fatal(err)
	}
	if tr.accesses != 1 || tr.syncs != 2 || tr.workUnits != 7 {
		t.Fatalf("tracer saw accesses=%d syncs=%d work=%d", tr.accesses, tr.syncs, tr.workUnits)
	}
}

// TestTracerChannelEventsAtHappensBeforePoints: on an unbuffered channel
// the send is reported at arrival, before the receive it publishes to,
// and again at completion, after that receive — under every schedule.
func TestTracerChannelEventsAtHappensBeforePoints(t *testing.T) {
	want := "seq1 send 0/0, seq2 recv 0/0, seq1 send-done 0/0"
	for seed := int64(0); seed < 20; seed++ {
		tr := &fullTracer{}
		m := New(Config{Seed: seed, Tracer: tr})
		c := m.NewChan(0)
		if err := m.Run(func(th *Thread) {
			s := th.Spawn(func(s *Thread) { s.Send(c) })
			r := th.Spawn(func(r *Thread) { r.Recv(c) })
			th.Join(s)
			th.Join(r)
		}); err != nil {
			t.Fatal(err)
		}
		var chanEvents []string
		for _, e := range tr.log {
			if !strings.HasPrefix(e, "seq0 ") {
				chanEvents = append(chanEvents, e)
			}
		}
		if got := strings.Join(chanEvents, ", "); got != want {
			t.Fatalf("seed %d: channel events %s, want %s", seed, got, want)
		}
	}
}

func TestSyncEventString(t *testing.T) {
	if SyncAcquire.String() != "acquire" || SyncBarrier.String() != "barrier" {
		t.Error("SyncEvent names wrong")
	}
	if !strings.Contains(SyncEvent(99).String(), "99") {
		t.Error("out-of-range SyncEvent should show its number")
	}
}

func TestRaceKindString(t *testing.T) {
	if WAW.String() != "WAW" || RAW.String() != "RAW" || WAR.String() != "WAR" {
		t.Error("RaceKind names wrong")
	}
}

func TestDeadlockErrorListsThreads(t *testing.T) {
	m := New(Config{})
	l := m.NewMutex()
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			c.Lock(l)
			c.Lock(l) // self-deadlock
		})
		th.Join(c)
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want the child and the joining root", dl.Blocked)
	}
}

func TestKendoCondChain(t *testing.T) {
	// A chain of condvar handoffs under deterministic sync: thread i
	// waits for token == i, then passes it on. Any starvation or lost
	// wakeup deadlocks; any nondeterminism breaks the cross-seed check.
	run := func(seed int64) []uint64 {
		m := New(Config{Seed: seed, DetSync: true})
		token := m.AllocShared(8, 8)
		l := m.NewMutex()
		cv := m.NewCond()
		const n = 4
		err := m.Run(func(th *Thread) {
			var kids []*Thread
			for i := 1; i < n; i++ {
				want := uint64(i)
				kids = append(kids, th.Spawn(func(c *Thread) {
					c.Lock(l)
					for c.LoadU64(token) != want {
						c.CondWait(cv, l)
					}
					c.StoreU64(token, want+1)
					c.Broadcast(cv)
					c.Unlock(l)
				}))
			}
			th.Lock(l)
			th.StoreU64(token, 1)
			th.Broadcast(cv)
			th.Unlock(l)
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return m.FinalCounters()
	}
	ref := run(0)
	for seed := int64(1); seed < 5; seed++ {
		got := run(seed)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d counters %v != %v", seed, got, ref)
			}
		}
	}
}

func TestStatsStepsCounted(t *testing.T) {
	m := New(Config{})
	if err := m.Run(func(th *Thread) { th.Work(10) }); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Steps == 0 {
		t.Error("scheduler dispatches not counted")
	}
	if m.Stats().Ops != 10 {
		t.Errorf("Ops = %d, want 10", m.Stats().Ops)
	}
}
