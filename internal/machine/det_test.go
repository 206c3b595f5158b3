package machine

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// tinyLayout is a 4-bit-clock layout used to force frequent rollovers.
func tinyLayout() vclock.Layout { return vclock.Layout{TIDBits: 8, ClockBits: 4} }

// lockOrderProgram builds a program in which nThreads repeatedly acquire a
// shared lock and append their id to a log region; the log content is a
// direct transcript of the synchronization order. It returns the program's
// root function and the log location.
func lockOrderProgram(m *Machine, nThreads, iters int) (root func(*Thread), log uint64, logLen int) {
	logLen = nThreads * iters
	log = m.AllocShared(logLen+8, 8)
	cursor := m.AllocShared(8, 8)
	l := m.NewMutex()
	root = func(th *Thread) {
		var kids []*Thread
		for i := 0; i < nThreads-1; i++ {
			kids = append(kids, th.Spawn(func(c *Thread) {
				for j := 0; j < iters; j++ {
					c.Work(1 + c.ID) // unequal progress rates
					c.Lock(l)
					pos := c.LoadU64(cursor)
					c.StoreU8(log+pos, byte('A'+c.ID))
					c.StoreU64(cursor, pos+1)
					c.Unlock(l)
				}
			}))
		}
		for j := 0; j < iters; j++ {
			th.Work(1)
			th.Lock(l)
			pos := th.LoadU64(cursor)
			th.StoreU8(log+pos, byte('A'+th.ID))
			th.StoreU64(cursor, pos+1)
			th.Unlock(l)
		}
		for _, k := range kids {
			th.Join(k)
		}
	}
	return root, log, logLen
}

func runLockOrder(t *testing.T, seed int64, det bool) string {
	t.Helper()
	m := New(Config{Seed: seed, DetSync: det})
	root, log, n := lockOrderProgram(m, 4, 12)
	if err := m.Run(root); err != nil {
		t.Fatalf("seed %d det=%v: %v", seed, det, err)
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(m.Mem().Load(log+uint64(i), 1))
	}
	return string(out)
}

func TestKendoLockOrderDeterministicAcrossSeeds(t *testing.T) {
	ref := runLockOrder(t, 0, true)
	for seed := int64(1); seed < 12; seed++ {
		if got := runLockOrder(t, seed, true); got != ref {
			t.Fatalf("deterministic sync violated: seed %d order %q != seed 0 order %q", seed, got, ref)
		}
	}
}

func TestNondeterministicLockOrderVariesAcrossSeeds(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(0); seed < 12; seed++ {
		distinct[runLockOrder(t, seed, false)] = true
	}
	if len(distinct) < 2 {
		t.Error("nondeterministic runs all agreed; schedule variation is not reaching lock order")
	}
}

func TestKendoFinalCountersDeterministic(t *testing.T) {
	run := func(seed int64) string {
		m := New(Config{Seed: seed, DetSync: true})
		root, _, _ := lockOrderProgram(m, 4, 8)
		if err := m.Run(root); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(m.FinalCounters())
	}
	ref := run(0)
	for seed := int64(1); seed < 8; seed++ {
		if got := run(seed); got != ref {
			t.Fatalf("final counters differ across seeds: %s vs %s", got, ref)
		}
	}
}

func TestKendoDeterministicThreadIDs(t *testing.T) {
	// With deterministic sync, spawn order — and hence ids — must be
	// schedule-independent even when two threads both spawn children.
	run := func(seed int64) string {
		m := New(Config{Seed: seed, DetSync: true})
		var seqs string
		err := m.Run(func(th *Thread) {
			a := th.Spawn(func(c *Thread) {
				g := c.Spawn(func(g *Thread) { g.Work(3) })
				seqs += fmt.Sprintf("a%d.", g.ID)
				c.Join(g)
			})
			b := th.Spawn(func(c *Thread) {
				g := c.Spawn(func(g *Thread) { g.Work(3) })
				seqs += fmt.Sprintf("b%d.", g.ID)
				c.Join(g)
			})
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	ref := run(0)
	for seed := int64(1); seed < 8; seed++ {
		if got := run(seed); got != ref {
			t.Fatalf("thread id assignment varies: %q vs %q", got, ref)
		}
	}
}

func TestKendoCondWaitDeterministic(t *testing.T) {
	// Producer/consumer over a condvar: the sequence of consumed values
	// must be seed-independent with deterministic sync.
	run := func(seed int64, det bool) string {
		m := New(Config{Seed: seed, DetSync: det})
		buf := m.AllocShared(8, 8)
		full := m.AllocShared(8, 8)
		outBase := m.AllocShared(64, 8)
		l := m.NewMutex()
		cFull := m.NewCond()
		cEmpty := m.NewCond()
		const items = 8
		err := m.Run(func(th *Thread) {
			cons := th.Spawn(func(c *Thread) {
				for i := 0; i < items; i++ {
					c.Lock(l)
					for c.LoadU64(full) == 0 {
						c.CondWait(cFull, l)
					}
					v := c.LoadU64(buf)
					c.StoreU64(full, 0)
					c.Signal(cEmpty)
					c.Unlock(l)
					c.StoreU64(outBase+uint64(8*i), v*v)
				}
			})
			for i := 0; i < items; i++ {
				th.Work(3)
				th.Lock(l)
				for th.LoadU64(full) == 1 {
					th.CondWait(cEmpty, l)
				}
				th.StoreU64(buf, uint64(i+1))
				th.StoreU64(full, 1)
				th.Signal(cFull)
				th.Unlock(l)
			}
			th.Join(cons)
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(m.HashMem(outBase, 64))
	}
	ref := run(0, true)
	for seed := int64(1); seed < 6; seed++ {
		if got := run(seed, true); got != ref {
			t.Fatalf("condvar pipeline nondeterministic under Kendo: %s vs %s", got, ref)
		}
	}
}

func TestKendoBarrierDeterministic(t *testing.T) {
	run := func(seed int64) uint64 {
		m := New(Config{Seed: seed, DetSync: true})
		const n = 4
		arr := m.AllocShared(8*n, 8)
		b := m.NewBarrier(n)
		err := m.Run(func(th *Thread) {
			var kids []*Thread
			for i := 1; i < n; i++ {
				idx := i
				kids = append(kids, th.Spawn(func(c *Thread) {
					for ph := 0; ph < 3; ph++ {
						c.Work(idx * 2)
						c.StoreU64(arr+uint64(8*idx), c.LoadU64(arr+uint64(8*idx))+uint64(idx))
						c.BarrierWait(b)
					}
				}))
			}
			for ph := 0; ph < 3; ph++ {
				th.StoreU64(arr, th.LoadU64(arr)+7)
				th.BarrierWait(b)
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.HashMem(arr, 8*n)
	}
	ref := run(0)
	for seed := int64(1); seed < 6; seed++ {
		if got := run(seed); got != ref {
			t.Fatalf("barrier program nondeterministic under Kendo")
		}
	}
}

func TestKendoWithRolloverStillDeterministic(t *testing.T) {
	// Resets occur at deterministic points (§4.5), so determinism must
	// survive tiny clock widths that force many resets.
	run := func(seed int64) string {
		m := New(Config{Seed: seed, DetSync: true,
			Layout: tinyLayout()})
		root, log, n := lockOrderProgram(m, 3, 20)
		if err := m.Run(root); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Rollovers == 0 {
			t.Fatal("test needs rollovers to be meaningful")
		}
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(m.Mem().Load(log+uint64(i), 1))
		}
		return string(out)
	}
	ref := run(0)
	for seed := int64(1); seed < 6; seed++ {
		if got := run(seed); got != ref {
			t.Fatalf("rollover broke determinism: %q vs %q", got, ref)
		}
	}
}

// TestPickWakesOnlyTheHolderWithoutAllocating: a scheduling round with
// several threads waiting for the Kendo turn wakes exactly the holder —
// the least (counter, id) among participants, skipping a recycled id and
// a blocked thread — and allocates nothing, with telemetry off and on.
func TestPickWakesOnlyTheHolderWithoutAllocating(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		cfg := Config{Seed: 1, DetSync: true}
		if withTel {
			cfg.Metrics = telemetry.NewRegistry()
		}
		m := New(cfg)
		var ths []*Thread
		for i := 0; i < 6; i++ {
			th, err := m.newThread(func(*Thread) {})
			if err != nil {
				t.Fatal(err)
			}
			ths = append(ths, th)
		}
		m.threads[1] = nil // a joined thread's recycled id
		counters := []uint64{9, 0, 4, 4, 2, 7}
		for i, th := range ths {
			th.DetCounter = counters[i]
		}
		// Thread 4 has the least counter but is blocked, so it does not
		// participate; threads 2 and 3 tie and the lower id holds the turn.
		round := func() int {
			for _, th := range ths {
				th.state = stateDetWait
			}
			ths[4].state = stateBlocked
			if got, _ := m.pick(); got != nil {
				return got.ID
			}
			return -1
		}
		if got := round(); got != 2 {
			t.Fatalf("telemetry=%v: pick = thread %d, want thread 2", withTel, got)
		}
		for i, th := range ths {
			if want := i == 2 || i == 4; (th.state != stateDetWait) != want {
				t.Errorf("telemetry=%v: thread %d state %d after the round", withTel, i, th.state)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { round() }); allocs != 0 {
			t.Errorf("telemetry=%v: a pick round allocates %.1f times", withTel, allocs)
		}
	}
}
