package machine

import (
	"fmt"

	"repro/internal/kendo"
	"repro/internal/vclock"
)

// Mutex is a simulated pthread mutex. Vector-clock transfer on
// acquire/release follows the standard algorithm of §2.3: acquire joins the
// lock's clock into the thread's, release publishes the thread's clock to
// the lock and then ticks the thread's main element.
type Mutex struct {
	id      uint64
	m       *Machine
	holder  *Thread
	vc      vclock.VC
	waiters []*Thread // blocked acquirers (nondeterministic mode only)

	// orphaned marks a mutex whose holder died without releasing it;
	// deadHolderID/Seq identify the dead holder for diagnostics. Any
	// later acquisition attempt fails with a structured ErrOrphanedLock.
	orphaned      bool
	deadHolderID  int
	deadHolderSeq int

	// holdStart is the logical acquisition time of the current holder,
	// for timeline lock-held spans.
	holdStart uint64
}

// NewMutex creates a mutex on machine m.
func (m *Machine) NewMutex() *Mutex {
	l := &Mutex{id: m.objID(), m: m}
	m.locks = append(m.locks, l)
	return l
}

// Cond is a simulated pthread condition variable.
type Cond struct {
	id      uint64
	m       *Machine
	waiters []*Thread // in arrival order
}

// NewCond creates a condition variable on machine m.
func (m *Machine) NewCond() *Cond {
	return &Cond{id: m.objID(), m: m}
}

// Barrier is a simulated pthread barrier for a fixed number of threads.
// The release joins all arrivals' clocks, so every pre-barrier access
// happens-before every post-barrier access.
type Barrier struct {
	id         uint64
	m          *Machine
	n          int
	arrived    int
	vc         vclock.VC
	waiting    []*Thread
	maxCounter uint64
}

// NewBarrier creates a barrier released by the n-th arrival.
func (m *Machine) NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("machine: barrier count must be ≥ 1")
	}
	b := &Barrier{id: m.objID(), m: m, n: n}
	m.barriers = append(m.barriers, b)
	return b
}

// syncEnter is the common prologue of every synchronization operation: a
// scheduling point, a rollover-reset rendezvous (§4.5), and — with
// deterministic synchronization on — the Kendo turn wait (§3.3). The
// turn check is the scheduler's (Machine.takeTurn): it dispatches a
// thread awaiting the turn only once it holds it, or to park for a
// pending reset, or to unwind a stop. When syncEnter returns, the thread
// holds the processor and (in deterministic mode) the turn, and may
// complete the operation without further yields.
func (t *Thread) syncEnter() {
	t.awaitsTurn = t.m.cfg.DetSync
	t.yield()
	for t.m.resetPending {
		t.park()
	}
}

// retryTurn is Kendo's deterministic retry (deterministic mode only) of
// an operation that found its object unavailable under the turn — a held
// mutex, an empty channel, a send's slot still full: the failed attempt
// advances the counter, and the thread gives up the turn and waits until
// it holds it again.
func (t *Thread) retryTurn() {
	t.DetCounter++
	t.m.stats.Ops++
	t.m.stats.DetWaitYields++
	t.state = stateDetWait
	t.syncEnter()
}

// syncDone is the common epilogue: it charges the operation to the
// deterministic counter and the sync statistics.
func (t *Thread) syncDone() {
	t.DetCounter++
	t.m.stats.Ops++
	t.m.stats.SyncOps++
	t.SFRIndex++
	if t.m.tel != nil {
		t.endSFR("SFR")
	}
}

// Lock acquires l, blocking (nondeterministic mode) or deterministically
// retrying (Kendo mode) while it is held. Acquiring a mutex orphaned by a
// dead holder stops the machine with a structured ErrOrphanedLock.
func (t *Thread) Lock(l *Mutex) {
	m := t.m
	if l.m != m {
		t.fail(ErrMisuse, "lock", "mutex %d used on wrong machine", l.id)
	}
	t.syncEnter()
	t.contendStart = m.now()
	contended := false
	if m.cfg.DetSync {
		// Kendo: the lock state is observed only while holding the
		// turn, so the acquire order is deterministic. A failed
		// attempt deterministically advances the counter and retries.
		for l.holder != nil {
			contended = true
			t.checkOrphan(l)
			t.retryTurn()
		}
	} else {
		for l.holder != nil {
			contended = true
			t.checkOrphan(l)
			l.waiters = append(l.waiters, t)
			t.block("mutex " + fmt.Sprint(l.id))
		}
	}
	t.checkOrphan(l)
	l.holder = t
	l.holdStart = m.now()
	if tel := m.tel; tel != nil && contended {
		tel.tl.Span(t.ID, "lock contend", "lock", t.contendStart, l.holdStart)
	}
	t.held = append(t.held, l)
	t.VC.Join(l.vc)
	t.syncDone()
	m.trace(t, SyncAcquire, l.id)
	t.acquires++
	if inj := m.cfg.Injector; inj != nil && inj.CrashOnAcquire(t.ID, t.acquires) {
		t.crash() // lock-holder death: l is now orphaned
	}
}

// checkOrphan stops the machine when t tries to take a mutex whose holder
// died without releasing it.
func (t *Thread) checkOrphan(l *Mutex) {
	if l.orphaned {
		t.fail(ErrOrphanedLock, "lock", "mutex %d orphaned by crashed thread %d (seq %d)",
			l.id, l.deadHolderID, l.deadHolderSeq)
	}
}

// Unlock releases l, which must be held by t.
func (t *Thread) Unlock(l *Mutex) {
	t.syncEnter()
	t.unlockLocked(l)
	t.syncDone()
	t.m.trace(t, SyncRelease, l.id)
}

// unlockLocked performs the release without the sync prologue/epilogue;
// CondWait uses it while already holding the turn.
func (t *Thread) unlockLocked(l *Mutex) {
	if l.holder != t {
		t.fail(ErrMisuse, "unlock", "thread %d unlocking mutex %d held by %v", t.ID, l.id, holderID(l))
	}
	t.VC.CopyInto(&l.vc) // the mutex owns l.vc; nothing else aliases it
	t.m.tickClock(t)
	if tel := t.m.tel; tel != nil {
		tel.tl.Span(t.ID, "lock held", "lock", l.holdStart, t.m.now())
	}
	l.holder = nil
	for i, h := range t.held {
		if h == l {
			t.held = append(t.held[:i], t.held[i+1:]...)
			break
		}
	}
	if !t.m.cfg.DetSync && len(l.waiters) > 0 {
		// Wake one blocked acquirer, chosen by the seeded policy —
		// this is a source of scheduling nondeterminism.
		i := t.m.draw(len(l.waiters))
		w := l.waiters[i]
		l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
		w.state = stateRunnable
	}
}

func holderID(l *Mutex) interface{} {
	if l.holder == nil {
		return "nobody"
	}
	return l.holder.ID
}

// CondWait atomically releases l and suspends t until a Signal or
// Broadcast wakes it, then re-acquires l. Spurious wakeups occur only
// under fault injection (machine.Injector); as with pthreads, robust
// workloads re-check their predicate in a loop around CondWait. The
// tracer sees the release (SyncRelease on l) before the wait
// (SyncCondWait on c), and the re-acquisition as an ordinary Lock, so
// every thread's acquires and releases of l stay balanced.
func (t *Thread) CondWait(c *Cond, l *Mutex) {
	m := t.m
	t.syncEnter()
	if l.holder != t {
		t.fail(ErrMisuse, "condwait", "thread %d waiting on cond %d without holding the mutex", t.ID, c.id)
	}
	t.unlockLocked(l)
	t.syncDone()
	m.trace(t, SyncRelease, l.id)
	m.trace(t, SyncCondWait, c.id)
	c.waiters = append(c.waiters, t)
	t.wakeVC = vclock.VC{}
	t.wakerCounter = 0
	t.waitingCond = c
	t.block("cond " + fmt.Sprint(c.id))
	t.waitingCond = nil
	// Woken: consume the waker's stashed clock and counter (both zero
	// after a spurious wakeup).
	t.VC.Join(t.wakeVC)
	t.wakeVC = vclock.VC{}
	if m.cfg.DetSync {
		t.DetCounter = kendo.WakeCounter(t.DetCounter, t.wakerCounter)
	}
	t.Lock(l)
}

// Signal wakes one waiter of c: the earliest arrival in deterministic
// mode, a seeded-random one otherwise. Signalling with no waiters is a
// no-op, as with pthreads.
func (t *Thread) Signal(c *Cond) {
	t.syncEnter()
	if len(c.waiters) > 0 {
		i := 0
		if !t.m.cfg.DetSync {
			i = t.m.draw(len(c.waiters))
		}
		w := c.waiters[i]
		c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
		t.wake(w)
	}
	t.m.tickClock(t)
	t.syncDone()
	t.m.trace(t, SyncSignal, c.id)
}

// Broadcast wakes every waiter of c.
func (t *Thread) Broadcast(c *Cond) {
	t.syncEnter()
	for _, w := range c.waiters {
		t.wake(w)
	}
	c.waiters = nil
	t.m.tickClock(t)
	t.syncDone()
	t.m.trace(t, SyncSignal, c.id)
}

func (t *Thread) wake(w *Thread) {
	w.wakeVC = t.VC.Copy()
	w.wakerCounter = t.DetCounter
	w.state = stateRunnable
}

// BarrierWait blocks until b's n-th thread arrives; all participants leave
// with the join of all arrivals' clocks and (in deterministic mode) a
// counter just past the latest arrival's. The tracer sees each arrival
// with its position in the episode (0 to n-1) as pos and n as capacity.
func (t *Thread) BarrierWait(b *Barrier) {
	m := t.m
	t.syncEnter()
	b.vc.Join(t.VC)
	if t.DetCounter > b.maxCounter {
		b.maxCounter = t.DetCounter
	}
	if tr := m.cfg.Tracer; tr != nil {
		tr.Sync(t, SyncBarrier, b.id, b.arrived, b.n)
	}
	b.arrived++
	if b.arrived < b.n {
		b.waiting = append(b.waiting, t)
		t.syncDone()
		t.block("barrier " + fmt.Sprint(b.id))
		return
	}
	// Last arrival: release everyone with the joint clock.
	maxCounter := b.maxCounter
	joint := b.vc.Copy()
	for _, w := range b.waiting {
		w.VC = joint.Copy()
		m.tickClock(w)
		if m.cfg.DetSync {
			w.DetCounter = kendo.WakeCounter(w.DetCounter, maxCounter)
		}
		w.state = stateRunnable
	}
	t.VC = joint.Copy()
	m.tickClock(t)
	if m.cfg.DetSync {
		t.DetCounter = kendo.WakeCounter(t.DetCounter, maxCounter)
	}
	b.arrived = 0
	b.waiting = nil
	b.vc = vclock.VC{}
	b.maxCounter = 0
	t.syncDone()
}

// Spawn starts a new thread running fn. The child's clock is the join of
// the parent's (thread creation is a synchronization edge), and in
// deterministic mode both its id and initial counter are deterministic, as
// §3.3 requires.
func (t *Thread) Spawn(fn func(*Thread)) *Thread {
	m := t.m
	t.syncEnter()
	child, err := m.newThread(fn)
	if err != nil {
		m.stop(err)
		panic(stopToken)
	}
	child.VC = t.VC.Copy()
	m.tickClock(child)
	m.tickClock(t)
	if m.cfg.DetSync {
		child.DetCounter = kendo.WakeCounter(0, t.DetCounter)
	}
	child.state = stateRunnable
	m.startGoroutine(child)
	t.syncDone()
	m.trace(t, SyncSpawn, uint64(child.Seq))
	return child
}

// Join blocks until child finishes, joins its clock (thread join is a
// synchronization edge), and releases the child's id for reuse (§4.5).
func (t *Thread) Join(child *Thread) {
	m := t.m
	if child == t {
		t.fail(ErrMisuse, "join", "thread %d joining itself", t.ID)
	}
	t.syncEnter()
	if child.joined {
		t.fail(ErrMisuse, "join", "thread %d (seq %d) joined twice", child.ID, child.Seq)
	}
	for child.state != stateFinished {
		child.joiners = append(child.joiners, t)
		t.block("join seq " + fmt.Sprint(child.Seq))
	}
	child.joined = true
	t.VC.Join(child.VC)
	if m.cfg.DetSync {
		// The child's finish time is schedule-dependent even though its
		// final counter is not, so a joiner that blocked resumes at an
		// arbitrary real-time point. Re-acquire the turn with the
		// post-join counter before the globally visible id recycling,
		// so the recycling lands at a deterministic place in the
		// synchronization order.
		t.DetCounter = kendo.WakeCounter(t.DetCounter, child.DetCounter)
		if holder, _ := m.scanTurn(); !m.takeTurn(t, holder) {
			t.syncEnter() // refused: wait for the turn like any sync op
		}
	}
	// Recycle the id: the parent holds the child's final clock in its
	// own vector, so a future thread reusing this id continues the
	// clock monotonically.
	if m.threads[child.ID] == child {
		m.threads[child.ID] = nil
		m.freeTIDs = insertSorted(m.freeTIDs, child.ID)
	}
	t.syncDone()
	m.trace(t, SyncJoin, uint64(child.Seq))
}

func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
