package machine

import (
	"fmt"
	"sort"
	"strings"
)

// MachineErrorKind classifies failures the machine contains and reports as
// structured errors instead of crashing the caller.
type MachineErrorKind int

// Contained-failure kinds.
const (
	// ErrPanic is a workload panic caught on a thread goroutine.
	ErrPanic MachineErrorKind = iota
	// ErrMisuse is an API misuse: double unlock, condition wait without
	// the mutex, double join, joining oneself, cross-machine objects.
	ErrMisuse
	// ErrOrphanedLock is an attempt to acquire (or a wait on) a mutex
	// whose holder died without releasing it.
	ErrOrphanedLock
	// ErrConfig is an invalid machine configuration (bad epoch layout,
	// thread-id space exhausted, Run called twice).
	ErrConfig
	// ErrScheduler is an internal scheduler invariant violation (for
	// example a Picker returning an out-of-range index).
	ErrScheduler
)

var machineErrorKindNames = [...]string{"panic", "misuse", "orphaned-lock", "config", "scheduler"}

func (k MachineErrorKind) String() string {
	if int(k) < len(machineErrorKindNames) {
		return machineErrorKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MachineError is a structured report of a contained failure: the machine
// stops, every thread unwinds, and Run returns this error with a
// diagnostic dump instead of letting a panic escape.
type MachineError struct {
	// Kind classifies the failure.
	Kind MachineErrorKind
	// TID is the thread at fault, or -1 for a machine-level failure.
	TID int
	// Op is the operation in progress ("unlock", "condwait", "join", …).
	Op string
	// Msg describes the failure.
	Msg string
	// PanicValue is the recovered value for ErrPanic.
	PanicValue interface{}
	// Dump is the diagnostic state snapshot taken at the failure point.
	Dump *Dump
}

func (e *MachineError) Error() string {
	who := "machine"
	if e.TID >= 0 {
		who = fmt.Sprintf("thread %d", e.TID)
	}
	if e.Op != "" {
		return fmt.Sprintf("machine: %s: %s in %s: %s", e.Kind, who, e.Op, e.Msg)
	}
	return fmt.Sprintf("machine: %s: %s: %s", e.Kind, who, e.Msg)
}

// LivelockError reports that the machine exhausted its MaxSteps budget
// without finishing: the Kendo-starvation watchdog. It names the starved
// thread — the unfinished thread that has waited longest by deterministic
// progress — and its counter, so a stuck deterministic rotation is
// attributable.
type LivelockError struct {
	// Steps is the exhausted scheduler-step budget.
	Steps uint64
	// StarvedTID and StarvedCounter identify the starved thread: the
	// non-runnable unfinished thread with the minimum (counter, id), or
	// the overall minimum when every unfinished thread is runnable.
	StarvedTID     int
	StarvedCounter uint64
	// Dump is the diagnostic state snapshot at budget exhaustion.
	Dump *Dump
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("machine: livelock: step budget %d exhausted; thread %d starved at counter %d",
		e.Steps, e.StarvedTID, e.StarvedCounter)
}

// Decision records one scheduler dispatch for the diagnostic dump.
type Decision struct {
	Step uint64
	TID  int
}

// ThreadDump is one thread's state in a diagnostic dump.
type ThreadDump struct {
	ID      int
	Seq     int
	State   string
	Counter uint64
	Clock   uint32
	SFR     uint64
	// Held lists the object ids of mutexes the thread currently holds.
	Held []uint64
	// BlockedOn describes what the thread is waiting for, if anything.
	BlockedOn string
	// Crashed reports an injected or voluntary thread death.
	Crashed bool
}

// OrphanedLock records a mutex whose holder died without releasing it.
type OrphanedLock struct {
	LockID    uint64
	HolderID  int
	HolderSeq int
}

// Dump is the diagnostic snapshot attached to contained failures: per-
// thread state, held locks, Kendo counters, and the last scheduler
// decisions. It is what a post-mortem needs to replay and attribute the
// failure deterministically.
type Dump struct {
	Steps     uint64
	Threads   []ThreadDump
	Decisions []Decision
	Orphans   []OrphanedLock
}

func (d *Dump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler steps: %d\n", d.Steps)
	fmt.Fprintf(&b, "threads:\n")
	for _, t := range d.Threads {
		fmt.Fprintf(&b, "  tid %d (seq %d): %-9s counter=%-8d clock=%-6d sfr=%d", t.ID, t.Seq, t.State, t.Counter, t.Clock, t.SFR)
		if len(t.Held) > 0 {
			fmt.Fprintf(&b, " holds=%v", t.Held)
		}
		if t.BlockedOn != "" {
			fmt.Fprintf(&b, " waiting-on=%s", t.BlockedOn)
		}
		if t.Crashed {
			b.WriteString(" CRASHED")
		}
		b.WriteByte('\n')
	}
	for _, o := range d.Orphans {
		fmt.Fprintf(&b, "orphaned mutex %d: holder tid %d (seq %d) died\n", o.LockID, o.HolderID, o.HolderSeq)
	}
	if len(d.Decisions) > 0 {
		fmt.Fprintf(&b, "last %d scheduler decisions (step:tid):", len(d.Decisions))
		for _, dec := range d.Decisions {
			fmt.Fprintf(&b, " %d:%d", dec.Step, dec.TID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var threadStateNames = [...]string{"new", "blocked", "runnable", "parked", "detwait", "finished"}

func (s threadState) String() string {
	if int(s) < len(threadStateNames) {
		return threadStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// dumpDecisions is the length of the scheduler-decision ring kept for
// diagnostic dumps.
const dumpDecisions = 32

// dump snapshots the machine state for a diagnostic report. The machine is
// quiescent when it is called (only one logical thread runs at a time), so
// no synchronization is needed.
func (m *Machine) dump() *Dump {
	d := &Dump{Steps: m.stats.Steps}
	for _, t := range m.threads {
		if t == nil {
			continue
		}
		td := ThreadDump{
			ID:        t.ID,
			Seq:       t.Seq,
			State:     t.state.String(),
			Counter:   t.DetCounter,
			Clock:     t.VC.Clock(t.ID),
			SFR:       t.SFRIndex,
			BlockedOn: t.blockedOn,
			Crashed:   t.crashed,
		}
		for _, l := range t.held {
			td.Held = append(td.Held, l.id)
		}
		d.Threads = append(d.Threads, td)
	}
	sort.Slice(d.Threads, func(i, j int) bool { return d.Threads[i].ID < d.Threads[j].ID })
	for _, l := range m.locks {
		if l.orphaned {
			d.Orphans = append(d.Orphans, OrphanedLock{LockID: l.id, HolderID: l.deadHolderID, HolderSeq: l.deadHolderSeq})
		}
	}
	n := m.recentN
	if n > dumpDecisions {
		n = dumpDecisions
	}
	for i := m.recentN - n; i < m.recentN; i++ {
		d.Decisions = append(d.Decisions, m.recent[i%dumpDecisions])
	}
	return d
}

// note records one scheduler dispatch in the decision ring.
func (m *Machine) note(tid int) {
	m.recent[m.recentN%dumpDecisions] = Decision{Step: m.stats.Steps, TID: tid}
	m.recentN++
}

// livelockError builds the watchdog report for an exhausted step budget.
func (m *Machine) livelockError() *LivelockError {
	starvedTID, starvedCounter := -1, ^uint64(0)
	pick := func(t *Thread) {
		if t.DetCounter < starvedCounter || (t.DetCounter == starvedCounter && t.ID < starvedTID) {
			starvedTID, starvedCounter = t.ID, t.DetCounter
		}
	}
	// Prefer threads that cannot run on their own (blocked on the Kendo
	// turn or on another thread): those are the starved ones.
	for _, t := range m.threads {
		if t != nil && (t.state == stateDetWait || t.state == stateBlocked || t.state == stateParked) {
			pick(t)
		}
	}
	if starvedTID < 0 {
		for _, t := range m.threads {
			if t != nil && t.state != stateFinished {
				pick(t)
			}
		}
	}
	return &LivelockError{
		Steps:          m.cfg.MaxSteps,
		StarvedTID:     starvedTID,
		StarvedCounter: starvedCounter,
		Dump:           m.dump(),
	}
}
