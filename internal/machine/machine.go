// Package machine simulates the multithreaded shared-memory machine CLEAN
// runs on: logical threads written against a Pthread-like API, interleaved
// one-at-a-time by a seeded cooperative scheduler over a simulated
// byte-addressable address space.
//
// The paper's software implementation intercepts every potentially shared
// access of a native binary via compiler instrumentation (§4.1); a Go
// reproduction cannot instrument goroutine memory traffic, so the machine
// makes the interception structural instead: every access flows through
// Thread.Load/Store, which classify it (shared vs private), feed it to the
// configured race Detector, count it, and report it to the configured
// Tracer, if any.
//
// The seeded scheduler supplies the controlled nondeterminism the paper's
// execution model is about: with different seeds, a racy read/write pair
// resolves sometimes as RAW (CLEAN raises a race exception) and sometimes
// as WAR (the execution completes); with deterministic synchronization
// enabled (Kendo, §3.3) every completed execution yields identical results
// regardless of seed.
package machine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/memory"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Detector is the race-detection hook the machine calls on every shared
// access. internal/core implements CLEAN; internal/fasttrack and
// internal/tsanlite implement the comparison baselines.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// OnAccess checks one shared access. A non-nil error (typically
	// *RaceError) stops the machine: the paper's race exception.
	OnAccess(t *Thread, addr uint64, size int, write bool) error
	// Reset discards all per-location metadata. Called by the
	// deterministic clock-rollover reset (§4.5).
	Reset()
}

// SyncEvent classifies synchronization operations for tracing.
type SyncEvent int

// Synchronization event kinds recorded by a Tracer.
const (
	SyncAcquire SyncEvent = iota
	SyncRelease
	SyncBarrier
	SyncSpawn
	SyncJoin
	SyncSignal
	SyncCondWait
	SyncChanSend
	SyncChanRecv
	SyncChanSendDone
)

var syncEventNames = [...]string{"acquire", "release", "barrier", "spawn", "join", "signal", "condwait", "send", "recv", "send-done"}

func (e SyncEvent) String() string {
	if int(e) < len(syncEventNames) {
		return syncEventNames[e]
	}
	return fmt.Sprintf("sync(%d)", int(e))
}

// Tracer receives the machine's dynamic event stream. Every callback gets
// the executing thread, so its reusable ID, its unique spawn sequence
// number Seq and its vector clock VC are at hand. The hardware simulator,
// the predictive detector's recorder and replay driver, and the static
// analyzer's witness check all read this one stream.
type Tracer interface {
	// Access reports a memory access before its race check; t.VC is the
	// clock the access carries.
	Access(t *Thread, addr uint64, size int, write, shared bool)
	// Sync reports a synchronization operation. obj is the object's id;
	// for SyncSpawn and SyncJoin it is the child's spawn sequence
	// number. Each channel operation is reported at its happens-before
	// point: a send at arrival (SyncChanSend, when it takes queue
	// position pos and publishes its message), a receive at completion
	// (SyncChanRecv). A send is reported again when it completes
	// (SyncChanSendDone), having joined the receive that freed its
	// capacity slot. A barrier arrival (SyncBarrier) carries its
	// position in the current episode as pos and the party size as
	// capacity; an episode is the arrivals at positions 0 through
	// capacity-1. pos and capacity are zero for every other event.
	Sync(t *Thread, kind SyncEvent, obj uint64, pos, capacity int)
	// Work reports n units of private computation (non-memory
	// instructions, 1 cycle each in the paper's simple-core model).
	Work(t *Thread, n int)
}

// Config configures a Machine.
type Config struct {
	// Seed drives the scheduler's interleaving choices.
	Seed int64
	// DetSync enables Kendo deterministic synchronization (§3.3).
	DetSync bool
	// Detector, if non-nil, checks every shared access.
	Detector Detector
	// Layout is the epoch bit layout; zero value means
	// vclock.DefaultLayout (23-bit clock, 8-bit tid).
	Layout vclock.Layout
	// Tracer, if non-nil, records the event stream.
	Tracer Tracer
	// YieldEvery is the number of operations a thread executes between
	// scheduling points; 0 or 1 yields at every operation (finest
	// interleaving). Larger values coarsen interleavings and speed up
	// long runs without changing detector semantics.
	YieldEvery int
	// Picker, if non-nil, replaces the seeded random scheduling policy:
	// at every scheduling point it receives the runnable threads in
	// ascending id order and returns the index to dispatch. The
	// exhaustive-exploration checker (internal/explore) drives runs
	// through this hook. It is called on the goroutine of the thread
	// that yielded or finished (Run's own for the first decision), so it
	// must not call runtime.Goexit or t.FailNow; a panic in it, or an
	// index out of range, ends the run with an ErrScheduler MachineError.
	Picker func(runnable []*Thread) int
	// MaxSteps bounds the number of scheduler steps (dispatches plus
	// stalled scheduling rounds); 0 means unlimited. Exceeding the budget
	// stops the machine with a *LivelockError naming the starved thread —
	// the Kendo-starvation watchdog.
	MaxSteps uint64
	// Injector, if non-nil, is consulted at deterministic points to
	// inject faults (thread crashes, scheduler stalls, spurious wakeups,
	// metadata corruption). internal/faults provides the standard
	// implementation.
	Injector Injector
	// Metrics, if non-nil, receives the machine's counters: the Fig. 7 /
	// Fig. 10 access-classification counts live on the hot path, scalar
	// totals when the run ends, and the Kendo wait breakdown. Nil disables
	// metrics at the cost of one nil check per instrumented site.
	Metrics *telemetry.Registry
	// Timeline, if non-nil, records the run as one track per thread — SFR
	// spans, lock hold/contend spans, Kendo wait spans, race and fault
	// instants — timestamped with the deterministic event count, so the
	// rendered trace is byte-identical for a fixed (seed, workload).
	Timeline *telemetry.Timeline
}

// DefaultMaxSteps is the MaxSteps budget the experiment harness and the
// service apply when a configuration does not choose its own: roughly 25x
// the largest native-scale run, so a buggy or fault-degraded workload can
// never hang a caller, while no legitimate run comes near it.
const DefaultMaxSteps = 200_000_000

// Injector is the deterministic fault-injection hook. Every method is
// called at a point that is a pure function of (seed, program, plan), so a
// firing fault reproduces identically under replay. A nil Injector injects
// nothing.
type Injector interface {
	// Crash reports whether thread tid must die now, given its
	// deterministic counter. Consulted once per charged operation.
	Crash(tid int, counter uint64) bool
	// CrashOnAcquire reports whether thread tid must die immediately
	// after its n-th successful mutex acquisition — while holding the
	// lock (orphaned-mutex fault).
	CrashOnAcquire(tid int, n uint64) bool
	// StallDispatch reports whether the scheduler must refuse to
	// dispatch runnable thread tid at step.
	StallDispatch(step uint64, tid int) bool
	// SpuriousWake reports whether the condition-blocked thread tid
	// should be woken without a signal at step.
	SpuriousWake(step uint64, tid int) bool
	// OnSharedAccess is called before det's race check of the n-th
	// shared access (1-based) at addr; implementations may corrupt det's
	// metadata here (shadow bit flips). det is the machine's detector,
	// nil when it runs without one.
	OnSharedAccess(n, addr uint64, det Detector)
}

// Stats aggregates the counters the evaluation section reports.
type Stats struct {
	SharedReads     uint64
	SharedWrites    uint64
	PrivateAccesses uint64
	SyncOps         uint64
	Ops             uint64    // total deterministic events (instruction proxy)
	AccessBySize    [9]uint64 // shared accesses indexed by size in bytes
	Rollovers       uint64    // clock-rollover resets performed (§4.5)
	DetWaitYields   uint64    // scheduler yields spent waiting for the Kendo turn
	Steps           uint64    // scheduler dispatches
	Crashes         uint64    // injected thread deaths
	SpuriousWakes   uint64    // injected spurious condition wakeups
	StalledSteps    uint64    // scheduling rounds lost to injected stalls
}

// SharedAccesses returns the total number of instrumented accesses.
func (s Stats) SharedAccesses() uint64 { return s.SharedReads + s.SharedWrites }

// Machine is a simulated shared-memory multiprocessor run.
// Create with New, populate via Run; a Machine is single-use.
type Machine struct {
	cfg    Config
	layout vclock.Layout
	mem    *memory.Memory
	rng    *rand.Rand // seeded at the first draw

	threads  []*Thread // dense slot per live tid; nil when never used
	freeTIDs []int     // reusable ids of joined threads (§4.5), kept sorted
	nextTID  int
	liveID   int // monotone spawn sequence, for diagnostics

	done chan struct{} // closed by the goroutine whose scheduling decision ends the run

	// turn is the Kendo turn holder of the current scheduling step, which
	// pick finds under DetSync (-1 when no thread participates). next
	// grants or refuses the turn with it.
	turn int
	// turnCheck, when set (tests), sees every Kendo turn check: the
	// checked thread and the holder it was checked against.
	turnCheck func(t *Thread, holder int)

	stopErr      error
	resetPending bool
	initErr      error // deferred configuration error, returned by Run
	ran          bool

	locks    []*Mutex
	barriers []*Barrier
	chans    []*Chan

	nextObjID uint64
	sharedSeq uint64 // ordinal of shared accesses, for fault triggers

	clockHW []uint32 // per-tid high-water of issued clocks (epoch sanity)

	// accessCtr pre-resolves the hot-path access counters by
	// [shared][write], so the access classification is one comparison and
	// one indexed increment — no branches. Private reads and writes share
	// a counter, mirroring Stats.PrivateAccesses.
	accessCtr [2][2]*uint64

	// runnableBuf is the reusable scratch slice pick fills every scheduling
	// round; reusing it keeps the dispatch loop allocation-free.
	runnableBuf []*Thread

	recent  [dumpDecisions]Decision // scheduler-decision ring for dumps
	recentN uint64

	stats         Stats
	finalCounters map[int]uint64 // final det counter per spawn sequence number

	tel *machineTel // nil when telemetry is disabled
}

// New returns a machine ready to Run. An invalid configuration does not
// panic: the error is stashed and returned, structured, by Run.
func New(cfg Config) *Machine {
	if cfg.Layout == (vclock.Layout{}) {
		cfg.Layout = vclock.DefaultLayout
	}
	var initErr error
	if err := cfg.Layout.Validate(); err != nil {
		initErr = &MachineError{Kind: ErrConfig, TID: -1, Op: "new", Msg: err.Error()}
	}
	if cfg.YieldEvery < 1 {
		cfg.YieldEvery = 1
	}
	m := &Machine{
		cfg:           cfg,
		layout:        cfg.Layout,
		mem:           memory.New(),
		done:          make(chan struct{}),
		finalCounters: make(map[int]uint64),
		initErr:       initErr,
	}
	m.accessCtr = [2][2]*uint64{
		{&m.stats.PrivateAccesses, &m.stats.PrivateAccesses},
		{&m.stats.SharedReads, &m.stats.SharedWrites},
	}
	m.tel = newMachineTel(cfg)
	return m
}

// FailEarly stashes a configuration error discovered by a wrapper (the
// facade's Config validation) to be returned, structured, by Run — the
// same deferred-error path New uses for an invalid layout. The first
// recorded error wins.
func (m *Machine) FailEarly(err error) {
	if m.initErr == nil {
		m.initErr = err
	}
}

// Layout returns the epoch layout the machine was configured with.
func (m *Machine) Layout() vclock.Layout { return m.layout }

// Mem exposes the simulated memory for allocation and post-run inspection.
func (m *Machine) Mem() *memory.Memory { return m.mem }

// Stats returns the counters accumulated so far.
func (m *Machine) Stats() Stats { return m.stats }

// FinalCounters returns the deterministic counters of all finished threads
// ordered by spawn sequence. Under deterministic synchronization this
// sequence is identical across runs; the §6.2.2 determinism experiment
// compares it.
func (m *Machine) FinalCounters() []uint64 {
	seqs := make([]int, 0, len(m.finalCounters))
	for seq := range m.finalCounters {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	out := make([]uint64, 0, len(seqs))
	for _, seq := range seqs {
		out = append(out, m.finalCounters[seq])
	}
	return out
}

// ReleaseMetadata returns the attached detector's shadow metadata to the
// process-wide page pool, when the detector supports it. Call it exactly
// once, after the machine's run (and any result extraction that reads the
// shadow region) is complete; every service job path and the facade do,
// so sustained serving recycles pages instead of allocating them.
func (m *Machine) ReleaseMetadata() {
	if rel, ok := m.cfg.Detector.(interface{ ReleaseMetadata() }); ok {
		rel.ReleaseMetadata()
	}
}

// AllocShared reserves n bytes of shared (instrumented) memory.
func (m *Machine) AllocShared(n, align int) uint64 { return m.mem.Alloc(n, true, align) }

// AllocPrivate reserves n bytes of private (never instrumented) memory.
func (m *Machine) AllocPrivate(n, align int) uint64 { return m.mem.Alloc(n, false, align) }

// HashMem returns a FNV-1a hash of the n bytes at addr, used to compare
// program outputs across runs in the determinism experiments.
func (m *Machine) HashMem(addr uint64, n int) uint64 {
	h := fnv.New64a()
	if n > 0 {
		h.Write(m.mem.Bytes(addr, n))
	}
	return h.Sum64()
}

// Run executes root as thread 0 and schedules all threads it spawns until
// every thread finishes or the execution stops. It returns nil for a
// completed execution, a *RaceError when the detector raised a race
// exception, a *DeadlockError when no thread can make progress, a
// *LivelockError when the MaxSteps budget is exhausted, or a
// *MachineError for a contained crash (workload panic, API misuse,
// orphaned lock, bad configuration, scheduler failure).
//
// There is no scheduler goroutine: Run makes the first scheduling
// decision, and from then on the thread that yields or finishes makes the
// next one itself (next) and hands the processor over (dispatch). Run
// waits for the decision that ends the run.
func (m *Machine) Run(root func(*Thread)) error {
	if m.initErr != nil {
		return m.initErr
	}
	if m.ran {
		return &MachineError{Kind: ErrConfig, TID: -1, Op: "run", Msg: "machine is single-use; Run called twice"}
	}
	m.ran = true
	defer m.publish()
	t0, terr := m.newThread(root)
	if terr != nil {
		return terr
	}
	// Start every clock at 1: a zero clock would make a thread's writes
	// indistinguishable from the "never written" zero epoch and hide
	// races on them. Spawned threads get this via the tick in Spawn.
	m.tickClock(t0)
	t0.state = stateRunnable
	m.startGoroutine(t0)
	m.dispatch(m.next())
	<-m.done
	return m.stopErr
}

// next makes one scheduling decision on the calling goroutine and returns
// the thread to dispatch, or nil when the run is over: every thread has
// finished, or the scheduler itself failed. Rollover resets, deadlock and
// livelock detection, injected stalls and the Kendo turn checks of picked
// threads are handled here, between dispatches. A scheduler panic (for
// example a misbehaving Picker) is contained as an ErrScheduler result;
// the run's thread goroutines stay parked and are abandoned, since the
// machine is single-use.
func (m *Machine) next() (next *Thread) {
	defer func() {
		if r := recover(); r != nil {
			m.stopErr = &MachineError{Kind: ErrScheduler, TID: -1, Op: "schedule",
				Msg: fmt.Sprint(r), PanicValue: r, Dump: m.dump()}
			next = nil
		}
	}()
	if m.stopErr != nil {
		// Let every thread observe the stop at its next scheduling point.
		m.forceUnblockAll()
	}
	for {
		t, stalled := m.pick()
		if t == nil && !stalled {
			if m.allFinished() {
				return nil
			}
			if m.stopErr == nil && m.resetPending {
				m.performReset()
				continue
			}
			if m.stopErr == nil {
				m.stopErr = m.deadlockError()
			}
			m.forceUnblockAll()
			continue
		}
		m.stats.Steps++
		if m.stopErr == nil && m.cfg.MaxSteps > 0 && m.stats.Steps > m.cfg.MaxSteps {
			// Kendo-starvation watchdog: the budget is spent and the
			// run has not finished — stop with a livelock report and
			// let every thread unwind.
			m.stopErr = m.livelockError()
			m.forceUnblockAll()
			continue
		}
		if t == nil {
			// Every runnable thread is stalled by an injected fault
			// this round; burn the step so finite stall windows pass.
			m.stats.StalledSteps++
			continue
		}
		m.note(t.ID)
		if t.awaitsTurn && m.stopErr == nil && !m.resetPending && !m.takeTurn(t, m.turn) {
			continue // t waits on for the turn; decide again
		}
		return t
	}
}

// takeTurn makes t's Kendo turn check (§3.3) against holder, the turn
// holder at this point: next makes it for a picked thread that awaits the
// turn, Join for itself. A grant ends the wait. A refusal is one yield of
// the wait: t waits on in stateDetWait until a later step finds it
// holding the turn. The telemetry sees a wait from its first refusal to
// its grant; a turn granted at once costs nothing.
func (m *Machine) takeTurn(t *Thread, holder int) bool {
	if m.turnCheck != nil {
		m.turnCheck(t, holder)
	}
	if holder != t.ID {
		m.stats.DetWaitYields++
		t.state = stateDetWait
		if t.turnYields == 0 {
			t.waitStart = m.now()
		}
		t.turnYields++
		return false
	}
	t.awaitsTurn = false
	if t.turnYields > 0 {
		if tel := m.tel; tel != nil {
			tel.kendoWait(t, m.now())
		}
		t.turnYields = 0
	}
	return true
}

// dispatch hands the processor to t with one channel send, or ends the
// run when t is nil. The caller touches no machine state afterwards until
// it is itself resumed.
func (m *Machine) dispatch(t *Thread) {
	if t == nil {
		close(m.done)
		return
	}
	t.resume <- struct{}{}
}

// pick selects the next runnable thread under the seeded policy, first
// waking any deterministic-turn waiter that now holds the turn (or, with a
// reset pending, every waiter, so it can park at the rendezvous). The
// second result reports that runnable threads exist but every one of them
// is stalled by an injected scheduler fault this round.
func (m *Machine) pick() (*Thread, bool) {
	if m.cfg.DetSync {
		queued := m.wakeDetWaiters()
		if m.injectSpuriousWakes() {
			// The woken threads compete for the turn again.
			m.turn, queued = m.scanTurn()
		}
		if tel := m.tel; tel != nil {
			// Every participant but the holder waits for the turn.
			tel.kendoQueueDepth.Observe(float64(max(queued-1, 0)))
		}
	} else {
		m.injectSpuriousWakes()
	}
	inj := m.cfg.Injector
	runnable := m.runnableBuf[:0]
	stalled := false
	for _, t := range m.threads {
		if t == nil || t.state != stateRunnable {
			continue
		}
		if m.stopErr == nil && inj != nil && inj.StallDispatch(m.stats.Steps, t.ID) {
			stalled = true
			continue
		}
		runnable = append(runnable, t)
	}
	m.runnableBuf = runnable
	if len(runnable) == 0 {
		return nil, stalled
	}
	if m.cfg.Picker != nil {
		i := m.cfg.Picker(runnable)
		if i < 0 || i >= len(runnable) {
			panic(fmt.Sprintf("machine: Picker returned %d of %d runnable", i, len(runnable)))
		}
		return runnable[i], false
	}
	return runnable[m.draw(len(runnable))], false
}

// draw returns a seeded-random index below n. The source is seeded at
// the first draw: seeding math/rand's source costs more than a short run,
// and a run under a Picker draws only when it wakes a mutex or condition
// waiter at random.
func (m *Machine) draw(n int) int {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.cfg.Seed))
	}
	return m.rng.Intn(n)
}

// injectSpuriousWakes wakes condition-blocked threads the fault plan says
// should resume without a signal, removing them from their condition's
// waiter list so a later Signal does not wake them twice. It reports
// whether it woke any.
func (m *Machine) injectSpuriousWakes() (woke bool) {
	inj := m.cfg.Injector
	if inj == nil || m.stopErr != nil {
		return false
	}
	for _, t := range m.threads {
		if t == nil || t.state != stateBlocked || t.waitingCond == nil {
			continue
		}
		if !inj.SpuriousWake(m.stats.Steps, t.ID) {
			continue
		}
		c := t.waitingCond
		for i, w := range c.waiters {
			if w == t {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		t.state = stateRunnable
		woke = true
		m.stats.SpuriousWakes++
		if tel := m.tel; tel != nil {
			tel.tl.Instant(t.ID, "spurious wake", "fault", m.now())
		}
	}
	return woke
}

// wakeDetWaiters finds the step's Kendo turn holder and resumes the
// deterministic-turn waiters that can make progress: the holder, or all
// of them when a rollover reset needs everyone parked. Waking a waiter
// changes no counter and no participation, so the holder found before
// the wakes stands after them. It returns the number of participants.
func (m *Machine) wakeDetWaiters() int {
	holder, participants := m.scanTurn()
	m.turn = holder
	if m.resetPending {
		for _, t := range m.threads {
			if t != nil && t.state == stateDetWait {
				t.state = stateRunnable
			}
		}
	} else if holder >= 0 {
		if t := m.threads[holder]; t.state == stateDetWait {
			t.state = stateRunnable
		}
	}
	return participants
}

// scanTurn returns the Kendo turn holder, the participating thread with
// the least (counter, id) or -1 when none participates, and the number
// of participants, in one pass over the thread slots. It is kendo.Holder
// over the machine's own threads; the tests check every turn check's
// holder against kendo.Holder.
func (m *Machine) scanTurn() (holder, participants int) {
	holder = -1
	var least uint64
	for tid, t := range m.threads {
		if t == nil || !t.state.participates() {
			continue
		}
		participants++
		// Ids ascend, so a strict comparison keeps the lower id on a tie.
		if holder < 0 || t.DetCounter < least {
			holder, least = tid, t.DetCounter
		}
	}
	return holder, participants
}

func (m *Machine) allFinished() bool {
	for _, t := range m.threads {
		if t != nil && t.state != stateFinished {
			return false
		}
	}
	return true
}

func (m *Machine) deadlockError() error {
	var blocked []int
	for _, t := range m.threads {
		if t != nil && t.state != stateFinished {
			blocked = append(blocked, t.ID)
		}
	}
	sort.Ints(blocked)
	return &DeadlockError{Blocked: blocked}
}

// forceUnblockAll makes every unfinished thread runnable so it can observe
// the stop condition at its next scheduling point and unwind.
func (m *Machine) forceUnblockAll() {
	for _, t := range m.threads {
		if t != nil && t.state != stateFinished {
			t.state = stateRunnable
		}
	}
}

// stop records the first stopping error.
func (m *Machine) stop(err error) {
	if m.stopErr == nil {
		m.stopErr = err
	}
}

// performReset is the deterministic metadata reset of §4.5: it runs when
// every unfinished thread is parked at a synchronization boundary (or
// blocked, which is also an SFR boundary). It zeroes all epochs, all thread
// vector clocks, and all lock vector clocks, then resumes execution.
// Deterministic counters are NOT reset — Kendo's order is unaffected.
func (m *Machine) performReset() {
	if d := m.cfg.Detector; d != nil {
		d.Reset()
	}
	for _, t := range m.threads {
		if t == nil {
			continue
		}
		t.VC.Reset()
		t.wakeVC = vclock.VC{}
	}
	for _, l := range m.locks {
		l.vc.Reset()
	}
	for _, b := range m.barriers {
		b.vc.Reset()
	}
	for _, c := range m.chans {
		for i := range c.sendVCs {
			c.sendVCs[i].Reset()
		}
		for i := range c.recvVCs {
			c.recvVCs[i].Reset()
		}
	}
	m.stats.Rollovers++
	if tel := m.tel; tel != nil {
		tel.tl.Instant(0, "rollover reset", "machine", m.now())
	}
	m.resetPending = false
	for _, t := range m.threads {
		if t == nil || t.state == stateFinished {
			continue
		}
		// Restart clocks at 1, not 0, for the same reason Run does:
		// epoch (tid, 0) must stay reserved for "never written".
		t.epoch = m.layout.Pack(t.ID, t.VC.Tick(t.ID))
		if t.state == stateParked {
			t.state = stateRunnable
		}
	}
}

// tickClock advances t's main vector-clock element (done on release-type
// synchronization operations), records the per-tid clock high-water used
// by the epoch sanity check, and requests a rollover reset when the clock
// reaches the layout's limit.
func (m *Machine) tickClock(t *Thread) {
	c := t.VC.Tick(t.ID)
	t.epoch = m.layout.Pack(t.ID, c)
	if c > m.clockHW[t.ID] {
		m.clockHW[t.ID] = c
	}
	if c >= m.layout.MaxClock() {
		m.resetPending = true
	}
}

// EpochSane reports whether epoch e could legitimately have been produced
// by this run: a canonical field encoding (no reserved bits set), a thread
// id that has been allocated, and a clock no greater than that thread has
// ever issued. The CLEAN detector consults it so corrupted shadow metadata
// (a flipped bit) degrades to a monitor-mode re-check instead of a bogus
// race exception or a crash.
func (m *Machine) EpochSane(e vclock.Epoch) bool {
	if e == 0 {
		return true
	}
	tid := m.layout.TID(e)
	clock := m.layout.Clock(e)
	if m.layout.Pack(tid, clock) != e {
		return false // reserved or out-of-field bits set
	}
	if tid >= m.nextTID {
		return false // epoch attributed to a thread never started
	}
	if clock > m.clockHW[tid] {
		return false // clock from the future
	}
	return true
}

// errTIDSpace reports that the thread-id space of the epoch layout is
// exhausted; newThread returns it instead of panicking.
func (m *Machine) newThread(fn func(*Thread)) (*Thread, error) {
	var tid int
	if len(m.freeTIDs) > 0 {
		tid = m.freeTIDs[0]
		m.freeTIDs = m.freeTIDs[1:]
	} else {
		tid = m.nextTID
		m.nextTID++
	}
	if tid > m.layout.MaxTID() {
		return nil, &MachineError{Kind: ErrConfig, TID: -1, Op: "spawn",
			Msg:  fmt.Sprintf("thread id %d exceeds layout capacity %d", tid, m.layout.MaxTID()),
			Dump: m.dump()}
	}
	t := &Thread{
		ID:       tid,
		Seq:      m.liveID,
		m:        m,
		fn:       fn,
		resume:   make(chan struct{}),
		state:    stateNew,
		sfrStart: m.stats.Ops, // the first SFR begins at spawn time
		epoch:    m.layout.Pack(tid, 0),
	}
	m.liveID++
	for len(m.threads) <= tid {
		m.threads = append(m.threads, nil)
	}
	for len(m.clockHW) <= tid {
		m.clockHW = append(m.clockHW, 0)
	}
	m.threads[tid] = t
	return t, nil
}

// startGoroutine launches t's goroutine; it waits for its first dispatch.
// Its exit path is the containment boundary: workload panics become
// structured *MachineError values, injected crashes mark the thread dead
// and orphan its locks, and in all cases joiners are released. The
// finished thread then makes the next scheduling decision.
func (m *Machine) startGoroutine(t *Thread) {
	go func() {
		<-t.resume
		defer func() {
			switch r := recover(); r {
			case nil, stopToken:
				// Normal completion or machine-stop unwinding.
			case crashToken:
				// Injected thread death: the machine survives it.
				t.crashed = true
				m.stats.Crashes++
				if tel := m.tel; tel != nil {
					tel.tl.Instant(t.ID, "crash", "fault", m.now())
				}
			default:
				m.stop(&MachineError{Kind: ErrPanic, TID: t.ID, Op: "run",
					Msg: fmt.Sprintf("thread %d panicked: %v", t.ID, r), PanicValue: r, Dump: m.dump()})
			}
			m.reapLocks(t)
			t.endSFR("SFR")
			t.state = stateFinished
			m.finalCounters[t.Seq] = t.DetCounter
			for _, j := range t.joiners {
				if j.state == stateBlocked {
					j.state = stateRunnable
				}
			}
			t.joiners = nil
			m.dispatch(m.next())
		}()
		if m.stopErr != nil {
			panic(stopToken)
		}
		t.fn(t)
	}()
}

// reapLocks handles a terminating thread's held mutexes: a thread that
// dies (or returns) while holding locks orphans them. Orphaned mutexes are
// detected — waiters are woken to observe the orphan and every later
// acquisition attempt fails with a structured ErrOrphanedLock — instead of
// being silently trusted and deadlocking the workload.
func (m *Machine) reapLocks(t *Thread) {
	for _, l := range t.held {
		l.orphaned = true
		l.deadHolderID = t.ID
		l.deadHolderSeq = t.Seq
		for _, w := range l.waiters {
			if w.state == stateBlocked {
				w.state = stateRunnable
			}
		}
		l.waiters = nil
	}
	t.held = nil
}

func (m *Machine) trace(t *Thread, kind SyncEvent, obj uint64) {
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Sync(t, kind, obj, 0, 0)
	}
}

func (m *Machine) objID() uint64 {
	m.nextObjID++
	return m.nextObjID
}
