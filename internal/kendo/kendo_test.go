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
	if h := Holder(rt); h != 1 {
		t.Errorf("Holder = %d, want thread 1 (counter 3, minimum)", h)
	}
}

func TestIsTurnTieBrokenByID(t *testing.T) {
	rt := &fakeRT{counters: []uint64{4, 4, 4}, parts: allTrue(3)}
	if h := Holder(rt); h != 0 {
		t.Errorf("Holder = %d, want the lowest id to win the tie", h)
	}
}

func TestIsTurnIgnoresNonParticipants(t *testing.T) {
	rt := &fakeRT{counters: []uint64{9, 1, 2}, parts: []bool{true, false, true}}
	// Thread 1 has the minimum counter but is suspended; thread 2 holds
	// the turn among participants {0, 2}.
	if h := Holder(rt); h != 2 {
		t.Errorf("Holder = %d, want thread 2 while thread 1 is suspended", h)
	}
}

func TestIsTurnSingleThread(t *testing.T) {
	rt := &fakeRT{counters: []uint64{42}, parts: allTrue(1)}
	if h := Holder(rt); h != 0 {
		t.Errorf("Holder = %d; a lone thread always holds the turn", h)
	}
}

// The machine finds the holder once per scheduling step and trusts it for
// every turn check of that step. Trusting it must give each id the answer
// of its own all-pairs check: a suspended or never-started id never holds
// the turn, and only the holder does.
func TestIsTurnTrustsKnownHolder(t *testing.T) {
	rt := &fakeRT{counters: []uint64{4, 2, 2, 1}, parts: []bool{true, true, true, false}, unused: 6}
	known := Holder(rt)
	if known != 1 {
		t.Fatalf("Holder = %d, want thread 1 (the lower id of the tie at 2; thread 3 is suspended)", known)
	}
	for tid := 0; tid < rt.Threads(); tid++ {
		want := rt.Participating(tid) && allPairsTurn(rt, tid)
		if got := tid == known; got != want {
			t.Errorf("thread %d: the known holder says %v, its own check says %v", tid, got, want)
		}
	}
}

// Property: the holder is a participant whose (counter, id) is below
// every other participant's, for any counter assignment with at least
// one participant.
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
		h := Holder(&fakeRT{counters: counters, parts: parts})
		if h < 0 || !parts[h] {
			return false
		}
		for tid := 0; tid < n; tid++ {
			if tid == h || !parts[tid] {
				continue
			}
			if c := counters[tid]; c < counters[h] || (c == counters[h] && tid < h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Holder names exactly the participant the all-pairs rule
// accepts, and no thread when none participates. Counters are drawn from
// a small range so ties are common, and some ids are suspended or never
// used.
func TestHolderMatchesAllPairsProperty(t *testing.T) {
	f := func(raw []uint8, states []uint8, unused uint8) bool {
		n := len(raw)
		if n > 16 {
			n = 16
		}
		rt := &fakeRT{counters: make([]uint64, n), parts: make([]bool, n), unused: n + int(unused%4)}
		for i := 0; i < n; i++ {
			rt.counters[i] = uint64(raw[i] % 4)
			// Ids past the end of states participate; of the others,
			// one in three is suspended.
			rt.parts[i] = i >= len(states) || states[i]%3 != 0
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
		return h == accepted
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
}

// A thread waiting for the turn gets it once every other participant's
// counter has passed its own: here thread 1 advances between checks, as
// it would while thread 0 is refused.
func TestWaitForTurnYieldsUntilMinimum(t *testing.T) {
	rt := &fakeRT{counters: []uint64{5, 3}, parts: allTrue(2)}
	refusals := 0
	for Holder(rt) != 0 {
		refusals++
		rt.counters[1] += 3
	}
	if refusals != 1 || rt.counters[1] != 6 {
		t.Errorf("thread 0 got the turn after %d refusals at thread 1's counter %d; want 1 and 6",
			refusals, rt.counters[1])
	}
}

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
