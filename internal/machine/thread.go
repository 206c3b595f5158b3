package machine

import (
	"fmt"
	"math"

	"repro/internal/memory"
	"repro/internal/vclock"
)

type threadState int

const (
	stateNew threadState = iota
	stateRunnable
	stateBlocked // suspended in a blocking wait (mutex, cond, join, barrier)
	stateParked  // stalled at a sync boundary awaiting a rollover reset
	stateDetWait // waiting for the Kendo turn; woken by the scheduler
	stateFinished
)

// stopToken is the panic value used to unwind thread goroutines when the
// machine stops (race exception, deadlock, or a sibling thread's panic).
var stopToken = new(int)

// crashToken is the panic value used to unwind a single thread that dies
// to an injected fault; unlike stopToken it does not stop the machine.
var crashToken = new(int)

// Thread is a logical thread of the simulated machine. Workload functions
// receive a Thread and perform all memory and synchronization operations
// through it.
type Thread struct {
	// ID is the (reusable, §4.5) thread id encoded into epochs.
	ID int
	// Seq is the monotone spawn sequence number, unique per thread even
	// when IDs are reused.
	Seq int
	// VC is the thread's vector clock (§3.2).
	VC vclock.VC
	// DetCounter is the Kendo deterministic progress counter (§2.4).
	DetCounter uint64
	// SFRIndex counts synchronization-free regions entered by this
	// thread; it increments at every synchronization operation.
	SFRIndex uint64

	// epoch caches the thread's current epoch — Pack(ID, VC[ID]) under the
	// machine's layout — so the detector's per-access check reads one field
	// instead of re-packing the vector clock. The machine refreshes it at
	// every point the thread's own clock element changes: tickClock and the
	// rollover reset.
	epoch vclock.Epoch

	m      *Machine
	fn     func(*Thread)
	resume chan struct{}
	state  threadState

	joiners []*Thread
	joined  bool

	// wakeVC and wakerCounter are stashed by a waking thread (signal,
	// broadcast) and consumed when this thread resumes.
	wakeVC       vclock.VC
	wakerCounter uint64

	opsSinceYield int

	// held lists the mutexes this thread currently holds; a thread that
	// dies with a non-empty list orphans them (see Machine.reapLocks).
	held []*Mutex
	// acquires counts successful mutex acquisitions, the trigger for the
	// lock-holder-death fault.
	acquires uint64
	// blockedOn describes, for diagnostic dumps, what the thread is
	// currently waiting for.
	blockedOn string
	// waitingCond is the condition variable the thread is blocked on, if
	// any; the spurious-wakeup fault needs it to delist the thread.
	waitingCond *Cond
	// spurious marks that the current wakeup was injected, not signalled.
	spurious bool
	// crashed marks a thread that died to an injected fault.
	crashed bool
	// sfrStart is the logical start time of the thread's current
	// synchronization-free region, for timeline spans.
	sfrStart uint64
	// contendStart is the logical time the thread started contending for a
	// mutex, for timeline lock-contend spans.
	contendStart uint64
}

// Machine returns the machine this thread runs on.
func (t *Thread) Machine() *Machine { return t.m }

// Epoch returns the thread's current epoch — the packed (ID, clock) pair
// under the machine's layout — from the per-thread cache, which the
// machine invalidates on every clock bump. This is the detector's
// EPOCH(t) read (Fig. 2) at the cost of one field load.
func (t *Thread) Epoch() vclock.Epoch { return t.epoch }

// yield hands control to the scheduler and blocks until redispatched.
func (t *Thread) yield() {
	t.m.yielded <- t
	<-t.resume
	if t.m.stopErr != nil {
		panic(stopToken)
	}
}

// step charges one (or n) deterministic events to the thread, applies any
// planned crash fault at the resulting counter, and yields at the
// configured granularity.
func (t *Thread) step(n int) {
	t.DetCounter += uint64(n)
	t.m.stats.Ops += uint64(n)
	if inj := t.m.cfg.Injector; inj != nil && t.m.stopErr == nil && inj.Crash(t.ID, t.DetCounter) {
		t.crash()
	}
	t.opsSinceYield += n
	if t.opsSinceYield >= t.m.cfg.YieldEvery {
		t.opsSinceYield = 0
		t.yield()
	} else if t.m.stopErr != nil {
		panic(stopToken)
	}
}

// crash kills the thread mid-execution (an injected fault): its goroutine
// unwinds, its held locks are orphaned, and the machine keeps running.
func (t *Thread) crash() {
	panic(crashToken)
}

// fail stops the machine with a structured contained-failure report and
// unwinds the calling thread.
func (t *Thread) fail(kind MachineErrorKind, op, format string, args ...interface{}) {
	t.m.stop(&MachineError{Kind: kind, TID: t.ID, Op: op,
		Msg: fmt.Sprintf(format, args...), Dump: t.m.dump()})
	panic(stopToken)
}

// park stalls the thread at a synchronization boundary until the pending
// rollover reset completes (§4.5).
func (t *Thread) park() {
	t.state = stateParked
	t.yield()
}

// block suspends the thread until another thread makes it runnable; why
// describes the wait for diagnostic dumps.
func (t *Thread) block(why string) {
	t.blockedOn = why
	t.state = stateBlocked
	t.yield()
	t.blockedOn = ""
}

// Work advances the thread by n units of private computation. It is the
// instruction-count proxy that drives the Kendo deterministic counter.
func (t *Thread) Work(n int) {
	if t.m.cfg.Tracer != nil {
		t.m.cfg.Tracer.Work(t, n)
	}
	t.step(n)
}

// Load reads a size-byte value (1, 2, 4 or 8) at addr, running the race
// check immediately after the read as §4.3 requires.
func (t *Thread) Load(addr uint64, size int) uint64 {
	return t.access(addr, size, false, 0)
}

// Store writes a size-byte value at addr, running the race check before
// the write as §4.3 requires.
func (t *Thread) Store(addr uint64, size int, v uint64) {
	t.access(addr, size, true, v)
}

// Convenience accessors for common widths.

// LoadU8 reads one byte at addr.
func (t *Thread) LoadU8(addr uint64) uint8 { return uint8(t.Load(addr, 1)) }

// StoreU8 writes one byte at addr.
func (t *Thread) StoreU8(addr uint64, v uint8) { t.Store(addr, 1, uint64(v)) }

// LoadU32 reads a 32-bit value at addr.
func (t *Thread) LoadU32(addr uint64) uint32 { return uint32(t.Load(addr, 4)) }

// StoreU32 writes a 32-bit value at addr.
func (t *Thread) StoreU32(addr uint64, v uint32) { t.Store(addr, 4, uint64(v)) }

// LoadU64 reads a 64-bit value at addr.
func (t *Thread) LoadU64(addr uint64) uint64 { return t.Load(addr, 8) }

// StoreU64 writes a 64-bit value at addr.
func (t *Thread) StoreU64(addr uint64, v uint64) { t.Store(addr, 8, v) }

// LoadF64 reads a float64 at addr.
func (t *Thread) LoadF64(addr uint64) float64 { return math.Float64frombits(t.Load(addr, 8)) }

// StoreF64 writes a float64 at addr.
func (t *Thread) StoreF64(addr uint64, v float64) { t.Store(addr, 8, math.Float64bits(v)) }

// CompareAndSwap performs an unsynchronized read-modify-write: if the
// size-byte value at addr equals old it is replaced by new. It is a plain
// data access pair (a read, then on success a write), not a
// synchronization operation — lock-free algorithms built on it are racy
// under CLEAN's model, exactly like canneal in §6.1.
func (t *Thread) CompareAndSwap(addr uint64, size int, old, new uint64) bool {
	if t.Load(addr, size) != old {
		return false
	}
	t.Store(addr, size, new)
	return true
}

// access is the single instrumented memory path: classification, counting,
// tracing, the actual data access, and the detector check in the §4.3
// order (check-before-write, check-after-read).
func (t *Thread) access(addr uint64, size int, write bool, v uint64) uint64 {
	m := t.m
	t.step(1)
	// Classification is branch-free: the single range comparison of Fig. 5
	// yields an index into the pre-resolved counter table.
	shared := memory.IsShared(addr)
	si, wi := b2i(shared), b2i(write)
	*m.accessCtr[si][wi]++
	if tel := m.tel; tel != nil {
		tel.accessCtr[si][wi].Inc()
	}
	if shared {
		if size < len(m.stats.AccessBySize) {
			m.stats.AccessBySize[size]++
		}
		m.sharedSeq++
		if inj := m.cfg.Injector; inj != nil && m.stopErr == nil {
			// Metadata-corruption faults fire just before the check.
			inj.OnSharedAccess(m.sharedSeq, addr, m.cfg.Detector)
		}
	}
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Access(t, addr, size, write, shared)
	}
	var ret uint64
	if write {
		if shared {
			t.check(addr, size, true)
		}
		m.mem.Store(addr, size, v)
	} else {
		ret = m.mem.Load(addr, size)
		if shared {
			t.check(addr, size, false)
		}
	}
	return ret
}

// b2i maps a bool to a counter-table index without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (t *Thread) check(addr uint64, size int, write bool) {
	d := t.m.cfg.Detector
	if d == nil {
		return
	}
	if err := d.OnAccess(t, addr, size, write); err != nil {
		if tel := t.m.tel; tel != nil {
			tel.raceExceptions.Inc()
			tel.tl.Instant(t.ID, "race exception", "race", t.m.now())
		}
		t.m.stop(err)
		panic(stopToken)
	}
}
