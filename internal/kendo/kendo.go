// Package kendo implements the deterministic-synchronization algorithm of
// Olszewski, Ansel and Amarasinghe's Kendo, which CLEAN adopts (§2.4, §3.3)
// to order all synchronization operations deterministically.
//
// Each thread maintains a deterministic progress counter that advances only
// with the thread's own executed operations, never with wall-clock time. A
// thread may perform a synchronization operation only while its counter is
// the strict minimum across all participating threads, with thread id
// breaking ties. Because counters are schedule-independent and every
// synchronization operation is performed at a unique (counter, id) point,
// the total order of synchronization — and with CLEAN's race exceptions,
// every value read — is the same in every execution.
//
// At any instant exactly one participating thread holds the turn: the one
// with the least (counter, id) pair. Holder finds it in one pass over the
// threads, and IsTurn, WaitForTurn and WaitForTurnObserved are derived
// from it; QueueDepth follows from the same fact, since every participant
// but the holder waits. A scheduler that asks once per step therefore pays
// for one scan, not one scan per waiter, and a runtime that hands that
// holder to the thread it resumes (Runtime.KnownHolder) spares the
// thread's own turn check the scan as well.
//
// The package is pure algorithm: it sees threads through the Runtime
// interface and owns no scheduling machinery, so its turn-taking and
// counter-assignment rules are unit-testable in isolation. The machine
// package wires it into the simulated scheduler.
package kendo

// Runtime is the view of the thread system Kendo needs: per-thread
// deterministic counters, participation status, and a way to give up the
// processor while waiting for the turn. Thread ids are dense small
// integers; the queries iterate them without allocating.
type Runtime interface {
	// Threads returns one past the largest thread id ever started. Ids
	// below it that are not in use (never started, or recycled after a
	// join) must report non-participating.
	Threads() int
	// Counter returns the deterministic counter of thread tid. It is
	// only asked of participating threads.
	Counter(tid int) uint64
	// Participating reports whether tid competes for the turn: started,
	// not finished, and not suspended in a blocking wait (a thread parked
	// in a condition wait or join is deterministically re-inserted when
	// woken, per WakeCounter).
	Participating(tid int) bool
	// KnownHolder returns the turn holder when the runtime already knows
	// it, or -1 to make the caller scan. A scheduler that found the holder
	// for the step that resumed the calling thread, with no counter or
	// participation changed since, answers here; IsTurn trusts it.
	KnownHolder() int
	// Yield relinquishes the processor so other threads can advance their
	// counters; the caller re-checks its turn when scheduled again.
	Yield()
}

// Holder returns the thread that holds the deterministic turn: the
// participating thread with the least counter, the lower id breaking
// ties. It returns -1 when no thread participates.
func Holder(rt Runtime) int {
	holder, least := -1, uint64(0)
	for tid, n := 0, rt.Threads(); tid < n; tid++ {
		if !rt.Participating(tid) {
			continue
		}
		// Ids ascend, so a strict comparison keeps the lower id on a tie.
		if c := rt.Counter(tid); holder < 0 || c < least {
			holder, least = tid, c
		}
	}
	return holder
}

// IsTurn reports whether thread tid currently holds the deterministic turn,
// scanning only when the runtime does not already know the holder.
func IsTurn(rt Runtime, tid int) bool {
	h := rt.KnownHolder()
	if h < 0 {
		h = Holder(rt)
	}
	return h == tid
}

// WaitForTurn spins (yielding the processor) until tid holds the turn.
// Progress: every participating thread either advances its counter with its
// own work or is itself waiting for the turn; the thread with the global
// minimum (counter, id) always passes.
func WaitForTurn(rt Runtime, tid int) {
	for !IsTurn(rt, tid) {
		rt.Yield()
	}
}

// WaitObserver receives the lifecycle of one deterministic-turn wait. The
// telemetry layer implements it to attribute Kendo wait time — the cost
// the paper's §6.1 deterministic-synchronization bars measure — to
// individual threads and waits.
type WaitObserver interface {
	// WaitBegin fires before the first yield of a wait that did not pass
	// immediately; an immediate pass produces no callbacks at all, so the
	// common uncontended case costs nothing.
	WaitBegin(tid int)
	// WaitEnd fires when the turn is finally held, with the number of
	// yields the wait consumed.
	WaitEnd(tid int, yields uint64)
}

// WaitForTurnObserved is WaitForTurn with wait-lifecycle callbacks. A nil
// observer degrades to plain WaitForTurn.
func WaitForTurnObserved(rt Runtime, tid int, obs WaitObserver) {
	if obs == nil {
		WaitForTurn(rt, tid)
		return
	}
	if IsTurn(rt, tid) {
		return
	}
	obs.WaitBegin(tid)
	var yields uint64
	for {
		yields++
		rt.Yield()
		if IsTurn(rt, tid) {
			break
		}
	}
	obs.WaitEnd(tid, yields)
}

// QueueDepth returns the number of participating threads that do not
// currently hold the turn — the depth of the deterministic-wait queue the
// telemetry layer samples at scheduling points. Exactly one participant
// holds the turn, so this is the participant count less one.
func QueueDepth(rt Runtime) int {
	depth := 0
	for tid, n := 0, rt.Threads(); tid < n; tid++ {
		if rt.Participating(tid) {
			depth++
		}
	}
	if depth > 0 {
		depth-- // the holder
	}
	return depth
}

// WakeCounter returns the deterministic counter a thread resumes with after
// being woken from a blocking wait (condition wait, join, barrier). The
// woken thread must be ordered after the waking event, so it resumes just
// past the maximum of its own counter and the waker's counter at the wake
// point. The waking operation itself was performed at a deterministic
// (counter, id), so the result is schedule-independent.
func WakeCounter(own, waker uint64) uint64 {
	if waker > own {
		return waker + 1
	}
	return own + 1
}
