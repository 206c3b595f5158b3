package machine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/vclock"
)

func TestSingleThreadLoadStore(t *testing.T) {
	m := New(Config{})
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		th.StoreU64(a, 0xCAFE)
		if got := th.LoadU64(a); got != 0xCAFE {
			t.Errorf("LoadU64 = %#x, want 0xCAFE", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := m.Stats()
	if s.SharedReads != 1 || s.SharedWrites != 1 {
		t.Errorf("stats reads/writes = %d/%d, want 1/1", s.SharedReads, s.SharedWrites)
	}
}

func TestPrivateAccessesNotShared(t *testing.T) {
	m := New(Config{})
	p := m.AllocPrivate(8, 8)
	if err := m.Run(func(th *Thread) {
		th.StoreU64(p, 7)
		th.LoadU64(p)
	}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.SharedAccesses() != 0 {
		t.Errorf("shared accesses = %d, want 0", s.SharedAccesses())
	}
	if s.PrivateAccesses != 2 {
		t.Errorf("private accesses = %d, want 2", s.PrivateAccesses)
	}
}

func TestSpawnJoinTransfersValues(t *testing.T) {
	m := New(Config{Seed: 1})
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			c.StoreU64(a, 42)
		})
		th.Join(child)
		if got := th.LoadU64(a); got != 42 {
			t.Errorf("value after join = %d, want 42", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnEstablishesHappensBefore(t *testing.T) {
	m := New(Config{Seed: 3})
	var childSaw uint64
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		th.StoreU64(a, 99)
		c := th.Spawn(func(c *Thread) {
			childSaw = c.LoadU64(a)
		})
		th.Join(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if childSaw != 99 {
		t.Fatalf("child saw %d, want 99", childSaw)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// A counter incremented under a lock must equal the total increment
	// count for any schedule.
	for seed := int64(0); seed < 20; seed++ {
		m := New(Config{Seed: seed})
		a := m.AllocShared(8, 8)
		l := m.NewMutex()
		const perThread = 25
		err := m.Run(func(th *Thread) {
			var kids []*Thread
			for i := 0; i < 4; i++ {
				kids = append(kids, th.Spawn(func(c *Thread) {
					for j := 0; j < perThread; j++ {
						c.Lock(l)
						c.StoreU64(a, c.LoadU64(a)+1)
						c.Unlock(l)
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
			if got := th.LoadU64(a); got != 4*perThread {
				t.Errorf("seed %d: counter = %d, want %d", seed, got, 4*perThread)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestUnlockNotHolderPanicsThread(t *testing.T) {
	m := New(Config{})
	l := m.NewMutex()
	err := m.Run(func(th *Thread) {
		th.Unlock(l)
	})
	if err == nil {
		t.Fatal("expected error from unlocking an unheld mutex")
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := New(Config{Seed: seed})
		flag := m.AllocShared(8, 8)
		l := m.NewMutex()
		c := m.NewCond()
		var woke bool
		err := m.Run(func(th *Thread) {
			w := th.Spawn(func(w *Thread) {
				w.Lock(l)
				for w.LoadU64(flag) == 0 {
					w.CondWait(c, l)
				}
				w.Unlock(l)
				woke = true
			})
			th.Work(10)
			th.Lock(l)
			th.StoreU64(flag, 1)
			th.Signal(c)
			th.Unlock(l)
			th.Join(w)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !woke {
			t.Fatalf("seed %d: waiter never woke", seed)
		}
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	m := New(Config{Seed: 7})
	flag := m.AllocShared(8, 8)
	count := m.AllocShared(8, 8)
	l := m.NewMutex()
	c := m.NewCond()
	const waiters = 5
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < waiters; i++ {
			kids = append(kids, th.Spawn(func(w *Thread) {
				w.Lock(l)
				for w.LoadU64(flag) == 0 {
					w.CondWait(c, l)
				}
				w.StoreU64(count, w.LoadU64(count)+1)
				w.Unlock(l)
			}))
		}
		th.Work(50)
		th.Lock(l)
		th.StoreU64(flag, 1)
		th.Broadcast(c)
		th.Unlock(l)
		for _, k := range kids {
			th.Join(k)
		}
		if got := th.LoadU64(count); got != waiters {
			t.Errorf("count = %d, want %d", got, waiters)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPhases(t *testing.T) {
	// Each thread writes its slot in phase 1; after the barrier every
	// thread reads all slots. Requires the barrier's all-to-all
	// happens-before to avoid races and see all values.
	m := New(Config{Seed: 5})
	const n = 4
	arr := m.AllocShared(8*n, 8)
	b := m.NewBarrier(n)
	sums := make([]uint64, n)
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < n-1; i++ {
			idx := i + 1
			kids = append(kids, th.Spawn(func(c *Thread) {
				c.StoreU64(arr+uint64(8*idx), uint64(idx+1))
				c.BarrierWait(b)
				var s uint64
				for j := 0; j < n; j++ {
					s += c.LoadU64(arr + uint64(8*j))
				}
				sums[idx] = s
			}))
		}
		th.StoreU64(arr, 1)
		th.BarrierWait(b)
		var s uint64
		for j := 0; j < n; j++ {
			s += th.LoadU64(arr + uint64(8*j))
		}
		sums[0] = s
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != 1+2+3+4 {
			t.Errorf("thread %d sum = %d, want 10", i, s)
		}
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	m := New(Config{Seed: 2})
	const n = 3
	b := m.NewBarrier(n)
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < n-1; i++ {
			kids = append(kids, th.Spawn(func(c *Thread) {
				for phase := 0; phase < 5; phase++ {
					c.BarrierWait(b)
					c.BarrierWait(b)
				}
			}))
		}
		for phase := 0; phase < 5; phase++ {
			th.StoreU64(a, uint64(phase))
			th.BarrierWait(b)
			th.BarrierWait(b)
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New(Config{Seed: 1})
	l1, l2 := m.NewMutex(), m.NewMutex()
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			c.Lock(l2)
			c.Work(10)
			c.Lock(l1)
		})
		th.Lock(l1)
		th.Work(10)
		th.Lock(l2)
		th.Join(c)
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

func TestThreadIDReuseAfterJoin(t *testing.T) {
	m := New(Config{})
	var ids []int
	err := m.Run(func(th *Thread) {
		for i := 0; i < 5; i++ {
			c := th.Spawn(func(c *Thread) { c.Work(1) })
			ids = append(ids, c.ID)
			th.Join(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id != 1 {
			t.Fatalf("ids = %v, want all spawns to reuse id 1", ids)
		}
	}
}

func TestThreadIDReuseClockMonotonic(t *testing.T) {
	// A thread reusing a joined thread's id must continue its clock
	// monotonically, or epochs from the two threads could alias.
	m := New(Config{})
	var clocks []uint32
	err := m.Run(func(th *Thread) {
		for i := 0; i < 3; i++ {
			c := th.Spawn(func(c *Thread) {
				clocks = append(clocks, c.VC.Clock(c.ID))
				c.Work(1)
			})
			th.Join(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] <= clocks[i-1] {
			t.Fatalf("reused-id clocks not monotonic: %v", clocks)
		}
	}
}

func TestWorkloadPanicReported(t *testing.T) {
	m := New(Config{})
	err := m.Run(func(th *Thread) {
		panic("workload bug")
	})
	if err == nil || !contains(err.Error(), "workload bug") {
		t.Fatalf("err = %v, want workload panic report", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// stopDetector raises an error on the k-th access, to test exception
// unwinding.
type stopDetector struct{ k, seen int }

func (d *stopDetector) Name() string { return "stop" }
func (d *stopDetector) Reset()       {}
func (d *stopDetector) OnAccess(t *Thread, addr uint64, size int, write bool) error {
	d.seen++
	if d.seen >= d.k {
		return &RaceError{Kind: RAW, Addr: addr, Size: size, TID: t.ID, Detector: "stop"}
	}
	return nil
}

func TestDetectorErrorStopsAllThreads(t *testing.T) {
	det := &stopDetector{k: 10}
	m := New(Config{Seed: 4, Detector: det})
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < 3; i++ {
			kids = append(kids, th.Spawn(func(c *Thread) {
				for j := 0; j < 1000; j++ {
					c.StoreU64(a, uint64(j))
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	var re *RaceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RaceError", err)
	}
	if det.seen > 11 {
		t.Errorf("detector saw %d accesses after stop, expected prompt halt", det.seen)
	}
}

func TestSchedulesDifferAcrossSeeds(t *testing.T) {
	// Without deterministic sync, an unsynchronized interleaving should
	// vary with the seed: two threads append to a log guarded only by
	// the scheduler's choices.
	order := func(seed int64) string {
		m := New(Config{Seed: seed})
		var log string
		err := m.Run(func(th *Thread) {
			a := th.Spawn(func(c *Thread) {
				for i := 0; i < 10; i++ {
					c.Work(1)
					log += "a"
				}
			})
			b := th.Spawn(func(c *Thread) {
				for i := 0; i < 10; i++ {
					c.Work(1)
					log += "b"
				}
			})
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	distinct := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		distinct[order(seed)] = true
	}
	if len(distinct) < 2 {
		t.Error("all seeds produced the same interleaving; scheduler is not exercising nondeterminism")
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	run := func() []uint64 {
		m := New(Config{Seed: 99})
		err := m.Run(func(th *Thread) {
			a := th.Spawn(func(c *Thread) { c.Work(57) })
			b := th.Spawn(func(c *Thread) { c.Work(31) })
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.FinalCounters()
	}
	r1, r2 := run(), run()
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatalf("same seed, different runs: %v vs %v", r1, r2)
	}
}

func TestRolloverResetPreservesExecution(t *testing.T) {
	// A tiny clock width forces rollover resets during a sync-heavy run;
	// the program must still complete with the right answer, and the
	// machine must count the resets.
	layout := vclock.Layout{TIDBits: 8, ClockBits: 4} // clocks roll at 15
	m := New(Config{Seed: 1, Layout: layout, Detector: &countingDetector{}})
	a := m.AllocShared(8, 8)
	l := m.NewMutex()
	const iters = 40
	err := m.Run(func(th *Thread) {
		c := th.Spawn(func(c *Thread) {
			for i := 0; i < iters; i++ {
				c.Lock(l)
				c.StoreU64(a, c.LoadU64(a)+1)
				c.Unlock(l)
			}
		})
		for i := 0; i < iters; i++ {
			th.Lock(l)
			th.StoreU64(a, th.LoadU64(a)+1)
			th.Unlock(l)
		}
		th.Join(c)
		if got := th.LoadU64(a); got != 2*iters {
			t.Errorf("counter = %d, want %d", got, 2*iters)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Rollovers == 0 {
		t.Error("expected at least one rollover reset with a 4-bit clock")
	}
	// Clocks must never exceed the layout's maximum.
	for _, th := range m.threads {
		if th != nil && th.VC.Clock(th.ID) > layout.MaxClock() {
			t.Errorf("thread %d clock %d exceeds max %d", th.ID, th.VC.Clock(th.ID), layout.MaxClock())
		}
	}
}

// countingDetector counts Reset calls and never reports races.
type countingDetector struct{ resets int }

func (d *countingDetector) Name() string { return "counting" }
func (d *countingDetector) Reset()       { d.resets++ }
func (d *countingDetector) OnAccess(t *Thread, addr uint64, size int, write bool) error {
	return nil
}

func TestYieldEveryCoarsensButPreservesResults(t *testing.T) {
	for _, ye := range []int{1, 4, 16} {
		m := New(Config{Seed: 11, YieldEvery: ye})
		a := m.AllocShared(8, 8)
		l := m.NewMutex()
		err := m.Run(func(th *Thread) {
			c := th.Spawn(func(c *Thread) {
				for i := 0; i < 50; i++ {
					c.Lock(l)
					c.StoreU64(a, c.LoadU64(a)+2)
					c.Unlock(l)
				}
			})
			for i := 0; i < 50; i++ {
				th.Lock(l)
				th.StoreU64(a, th.LoadU64(a)+3)
				th.Unlock(l)
			}
			th.Join(c)
			if got := th.LoadU64(a); got != 250 {
				t.Errorf("YieldEvery=%d: total = %d, want 250", ye, got)
			}
		})
		if err != nil {
			t.Fatalf("YieldEvery=%d: %v", ye, err)
		}
	}
}

func TestHashMemDetectsDifference(t *testing.T) {
	m := New(Config{})
	a := m.AllocShared(16, 8)
	if err := m.Run(func(th *Thread) { th.StoreU64(a, 5) }); err != nil {
		t.Fatal(err)
	}
	h1 := m.HashMem(a, 16)
	m2 := New(Config{})
	a2 := m2.AllocShared(16, 8)
	if err := m2.Run(func(th *Thread) { th.StoreU64(a2, 6) }); err != nil {
		t.Fatal(err)
	}
	if h1 == m2.HashMem(a2, 16) {
		t.Error("different memories hashed equal")
	}
}

// TestHashMemIsByteWiseFNV: HashMem is FNV-1a over the region's bytes in
// address order, the same as hashing them one at a time, and an empty
// region hashes nothing, wherever it starts.
func TestHashMemIsByteWiseFNV(t *testing.T) {
	m := New(Config{})
	a := m.AllocShared(24, 8)
	p := m.AllocPrivate(8, 8)
	if err := m.Run(func(th *Thread) {
		th.StoreU64(a, 0x0102030405060708)
		th.StoreU64(a+13, 0xfeedface)
		th.StoreU64(p, 42)
	}); err != nil {
		t.Fatal(err)
	}
	empty := fnv.New64a().Sum64()
	for _, r := range []struct {
		addr uint64
		n    int
	}{{a, 24}, {a + 3, 17}, {a + 23, 1}, {p, 8}, {a, 0}, {a + 1<<20, 0}} {
		h := fnv.New64a()
		for i := 0; i < r.n; i++ {
			h.Write([]byte{byte(m.Mem().Load(r.addr+uint64(i), 1))})
		}
		if got, want := m.HashMem(r.addr, r.n), h.Sum64(); got != want {
			t.Errorf("HashMem(%#x, %d) = %#x, want %#x", r.addr, r.n, got, want)
		}
		if r.n == 0 && m.HashMem(r.addr, r.n) != empty {
			t.Errorf("HashMem(%#x, 0) hashed something", r.addr)
		}
	}
}

func TestSFRIndexAdvancesOnSync(t *testing.T) {
	m := New(Config{})
	l := m.NewMutex()
	var sfrs []uint64
	err := m.Run(func(th *Thread) {
		sfrs = append(sfrs, th.SFRIndex)
		th.Lock(l)
		sfrs = append(sfrs, th.SFRIndex)
		th.Unlock(l)
		sfrs = append(sfrs, th.SFRIndex)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(sfrs[0] < sfrs[1] && sfrs[1] < sfrs[2]) {
		t.Fatalf("SFR indices %v not strictly increasing across sync ops", sfrs)
	}
}
