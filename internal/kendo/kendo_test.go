package kendo

import (
	"fmt"
	"testing"
	"testing/quick"
)

// fakeRT is a Runtime over explicit counter/participation tables. Ids
// from len(counters) up to unused-1 were never started and report
// non-participating. Asking the counter of a thread that does not
// participate breaks the Runtime contract and panics.
type fakeRT struct {
	counters []uint64
	parts    []bool
	unused   int
	yields   int
}

func (f *fakeRT) Threads() int {
	if f.unused > len(f.counters) {
		return f.unused
	}
	return len(f.counters)
}
func (f *fakeRT) Counter(tid int) uint64 {
	if !f.Participating(tid) {
		panic(fmt.Sprintf("Counter(%d) asked of a non-participant", tid))
	}
	return f.counters[tid]
}
func (f *fakeRT) Participating(tid int) bool { return tid < len(f.parts) && f.parts[tid] }
func (f *fakeRT) KnownHolder() int           { return -1 }
func (f *fakeRT) Yield()                     { f.yields++ }

// allPairsTurn is the turn rule as the machine first checked it, one
// waiter at a time: tid holds the turn when no other participating thread
// has a smaller counter, or an equal one and a smaller id. It is kept
// only as the reference Holder is checked against.
func allPairsTurn(rt Runtime, tid int) bool {
	mine := rt.Counter(tid)
	for other := 0; other < rt.Threads(); other++ {
		if other == tid || !rt.Participating(other) {
			continue
		}
		c := rt.Counter(other)
		if c < mine || (c == mine && other < tid) {
			return false
		}
	}
	return true
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func TestIsTurnStrictMinimum(t *testing.T) {
	rt := &fakeRT{counters: []uint64{5, 3, 7}, parts: allTrue(3)}
	if IsTurn(rt, 0) {
		t.Error("thread 0 (counter 5) must not have the turn")
	}
	if !IsTurn(rt, 1) {
		t.Error("thread 1 (counter 3, minimum) must have the turn")
	}
	if IsTurn(rt, 2) {
		t.Error("thread 2 (counter 7) must not have the turn")
	}
}

func TestIsTurnTieBrokenByID(t *testing.T) {
	rt := &fakeRT{counters: []uint64{4, 4, 4}, parts: allTrue(3)}
	if !IsTurn(rt, 0) {
		t.Error("lowest id must win the tie")
	}
	if IsTurn(rt, 1) || IsTurn(rt, 2) {
		t.Error("higher ids must lose the tie")
	}
}

func TestIsTurnIgnoresNonParticipants(t *testing.T) {
	rt := &fakeRT{counters: []uint64{9, 1, 2}, parts: []bool{true, false, true}}
	// Thread 1 has the minimum counter but is suspended; thread 2 holds
	// the turn among participants {0, 2}.
	if !IsTurn(rt, 2) {
		t.Error("thread 2 must hold the turn when thread 1 is suspended")
	}
	if IsTurn(rt, 0) {
		t.Error("thread 0 must wait for thread 2")
	}
}

func TestIsTurnSingleThread(t *testing.T) {
	rt := &fakeRT{counters: []uint64{42}, parts: allTrue(1)}
	if !IsTurn(rt, 0) {
		t.Error("a lone thread always holds the turn")
	}
}

// knownRT is a runtime that already knows the holder and has no counters
// to scan: every Counter or Participating call would panic on its empty
// tables.
type knownRT struct {
	fakeRT
	holder int
}

func (k *knownRT) KnownHolder() int { return k.holder }

func TestIsTurnTrustsKnownHolder(t *testing.T) {
	rt := &knownRT{fakeRT: fakeRT{unused: 3}, holder: 2}
	if !IsTurn(rt, 2) || IsTurn(rt, 0) {
		t.Fatal("IsTurn ignored the runtime's known holder")
	}
	// -1 means unknown: IsTurn falls back to the scan.
	scan := &knownRT{fakeRT: fakeRT{counters: []uint64{4, 2}, parts: allTrue(2)}, holder: -1}
	if !IsTurn(scan, 1) || IsTurn(scan, 0) {
		t.Fatal("with no known holder, IsTurn must scan")
	}
}

// Property: exactly one participating thread holds the turn, for any
// counter assignment with at least one participant.
func TestExactlyOneTurnHolderProperty(t *testing.T) {
	f := func(counters []uint64, partBits uint16) bool {
		n := len(counters)
		if n == 0 || n > 16 {
			return true
		}
		parts := make([]bool, n)
		any := false
		for i := range parts {
			parts[i] = partBits&(1<<i) != 0
			any = any || parts[i]
		}
		if !any {
			parts[0] = true
		}
		rt := &fakeRT{counters: counters, parts: parts}
		holders := 0
		for tid := 0; tid < n; tid++ {
			if parts[tid] && IsTurn(rt, tid) {
				holders++
			}
		}
		return holders == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Holder names exactly the participant the all-pairs rule
// accepts, and no thread when none participates; QueueDepth is the
// participant count less the holder. Counters are drawn from a small
// range so ties are common, and some ids are suspended or never used.
func TestHolderMatchesAllPairsProperty(t *testing.T) {
	f := func(raw []uint8, states []uint8, unused uint8) bool {
		n := len(raw)
		if n > 16 {
			n = 16
		}
		rt := &fakeRT{counters: make([]uint64, n), parts: make([]bool, n), unused: n + int(unused%4)}
		participants := 0
		for i := 0; i < n; i++ {
			rt.counters[i] = uint64(raw[i] % 4)
			// Ids past the end of states participate; of the others,
			// one in three is suspended.
			rt.parts[i] = i >= len(states) || states[i]%3 != 0
			if rt.parts[i] {
				participants++
			}
		}
		h := Holder(rt)
		accepted := -1
		for tid := 0; tid < n; tid++ {
			if rt.parts[tid] && allPairsTurn(rt, tid) {
				if accepted >= 0 {
					return false // the reference accepted two threads
				}
				accepted = tid
			}
		}
		if h != accepted {
			return false
		}
		for tid := 0; tid < rt.Threads(); tid++ {
			if IsTurn(rt, tid) != (tid == accepted) {
				return false
			}
		}
		want := participants - 1
		if participants == 0 {
			want = 0
		}
		return QueueDepth(rt) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHolderNoParticipants(t *testing.T) {
	if h := Holder(&fakeRT{}); h != -1 {
		t.Errorf("empty runtime: Holder = %d, want -1", h)
	}
	rt := &fakeRT{counters: []uint64{1, 2}, parts: []bool{false, false}, unused: 5}
	if h := Holder(rt); h != -1 {
		t.Errorf("no participants: Holder = %d, want -1", h)
	}
	if d := QueueDepth(rt); d != 0 {
		t.Errorf("no participants: QueueDepth = %d, want 0", d)
	}
}

func TestWaitForTurnYieldsUntilMinimum(t *testing.T) {
	rt := &fakeRT{counters: []uint64{5, 3}, parts: allTrue(2)}
	done := make(chan struct{})
	// Simulate thread 1 advancing past thread 0 on each yield.
	yieldCount := 0
	rtYield := &yieldingRT{fakeRT: rt, onYield: func() {
		yieldCount++
		rt.counters[1] += 3 // other thread catches up and passes
	}}
	go func() {
		WaitForTurn(rtYield, 0)
		close(done)
	}()
	<-done
	if yieldCount == 0 {
		t.Error("thread 0 should have yielded at least once")
	}
	if !IsTurn(rt, 0) {
		t.Error("after WaitForTurn returns, the thread must hold the turn")
	}
}

type yieldingRT struct {
	*fakeRT
	onYield func()
}

func (y *yieldingRT) Yield() { y.onYield() }

func TestWakeCounter(t *testing.T) {
	tests := []struct {
		own, waker, want uint64
	}{
		{0, 0, 1},
		{5, 3, 6},
		{3, 5, 6},
		{7, 7, 8},
	}
	for _, tt := range tests {
		if got := WakeCounter(tt.own, tt.waker); got != tt.want {
			t.Errorf("WakeCounter(%d,%d) = %d, want %d", tt.own, tt.waker, got, tt.want)
		}
	}
}

// waitRecorder records WaitObserver callbacks.
type waitRecorder struct {
	begins int
	ends   int
	yields uint64
}

func (w *waitRecorder) WaitBegin(tid int)              { w.begins++ }
func (w *waitRecorder) WaitEnd(tid int, yields uint64) { w.ends++; w.yields = yields }

func TestWaitForTurnObservedImmediatePassIsSilent(t *testing.T) {
	rt := &fakeRT{counters: []uint64{1, 5}, parts: allTrue(2)}
	rec := &waitRecorder{}
	WaitForTurnObserved(rt, 0, rec)
	if rec.begins != 0 || rec.ends != 0 {
		t.Fatalf("immediate pass produced callbacks: %+v", rec)
	}
	if rt.yields != 0 {
		t.Fatalf("immediate pass yielded %d times", rt.yields)
	}
}

func TestWaitForTurnObservedCountsYields(t *testing.T) {
	rt := &fakeRT{counters: []uint64{5, 1}, parts: allTrue(2)}
	// Thread 1 advances on each yield; thread 0 gets the turn once
	// 1's counter passes 5.
	y := &yieldingRT{fakeRT: rt, onYield: func() { rt.counters[1] += 2 }}
	rec := &waitRecorder{}
	WaitForTurnObserved(y, 0, rec)
	if rec.begins != 1 || rec.ends != 1 {
		t.Fatalf("callbacks = %+v, want one begin and one end", rec)
	}
	if rec.yields == 0 {
		t.Fatal("contended wait reported zero yields")
	}
	if !IsTurn(rt, 0) {
		t.Fatal("wait returned without the turn")
	}
}

func TestWaitForTurnObservedNilObserver(t *testing.T) {
	rt := &fakeRT{counters: []uint64{5, 1}, parts: allTrue(2)}
	y := &yieldingRT{fakeRT: rt, onYield: func() { rt.counters[1] += 2 }}
	WaitForTurnObserved(y, 0, nil) // must not panic, must still wait
	if !IsTurn(rt, 0) {
		t.Fatal("nil-observer wait returned without the turn")
	}
}

func TestQueueDepth(t *testing.T) {
	rt := &fakeRT{counters: []uint64{3, 1, 2, 9}, parts: []bool{true, true, true, false}}
	// Thread 1 holds the turn; 0 and 2 wait; 3 is suspended.
	if got := QueueDepth(rt); got != 2 {
		t.Fatalf("QueueDepth = %d, want 2", got)
	}
	rt.parts = []bool{false, true, false, false}
	if got := QueueDepth(rt); got != 0 {
		t.Fatalf("sole participant QueueDepth = %d, want 0", got)
	}
}

// Property: the woken thread is strictly ordered after both its own past
// and the waking event.
func TestWakeCounterOrderingProperty(t *testing.T) {
	f := func(own, waker uint64) bool {
		// Avoid overflow wrap in the property itself.
		if own > 1<<62 || waker > 1<<62 {
			return true
		}
		w := WakeCounter(own, waker)
		return w > own && w > waker
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
