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
// with the least (counter, id) pair, which Holder finds in one pass over
// the threads. A thread waiting for the turn does not poll for it: the
// machine's scheduler makes the check when it picks a waiting thread,
// and dispatches the thread only once it holds the turn, so each check
// costs one scan of the step and no dispatch.
//
// The package is pure algorithm: it sees threads through the Runtime
// interface and owns no scheduling machinery, so its turn-taking and
// counter-assignment rules are unit-testable in isolation. The machine
// applies the same rule to its own thread table on every scheduling step,
// and its tests check each of its decisions against Holder.
package kendo

// Runtime is the view of the thread system Kendo needs: per-thread
// deterministic counters and participation status. Thread ids are dense
// small integers; Holder iterates them without allocating.
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
}

// Holder returns the thread that holds the deterministic turn: the
// participating thread with the least counter, the lower id breaking
// ties. It returns -1 when no thread participates. Progress: every
// participating thread either advances its counter with its own work or
// is itself waiting for the turn, so the holder always passes.
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
