// Package faults implements seeded, deterministic fault injection for the
// simulated machine: a Plan places failures at precise operation counts —
// thread crashes mid-SFR, lock-holder death (orphaned mutex), spurious
// condition wakeups, shadow-metadata bit flips, forced clock-rollover
// pressure, and scheduler stalls — and an Injector applies it through the
// machine.Injector hook.
//
// Because every trigger is keyed to a deterministic quantity (a thread's
// Kendo counter, the scheduler step ordinal, the shared-access ordinal),
// the same (seed, plan) pair reproduces the same failure byte-identically:
// the recovery-via-deterministic-replay premise. The harness's resilience
// experiment verifies this for every cell of its fault matrix.
package faults

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/vclock"
)

// Kind enumerates the injectable fault kinds.
type Kind int

// The fault matrix.
const (
	// ThreadCrash kills a thread mid-SFR when its deterministic counter
	// reaches the trigger.
	ThreadCrash Kind = iota
	// LockHolderCrash kills a thread immediately after its n-th mutex
	// acquisition, orphaning the mutex.
	LockHolderCrash
	// SpuriousWakeup wakes a condition-blocked thread without a signal.
	SpuriousWakeup
	// ShadowBitFlip flips one bit of a shadow epoch just before a race
	// check, corrupting the metadata of the detector the machine runs.
	// The machine hands its detector to the hook, so there is no binding
	// step; a detector without a shadow region leaves it unfired.
	ShadowBitFlip
	// ClockPressure narrows the epoch clock field so the run is forced
	// through deterministic rollover resets (§4.5).
	ClockPressure
	// SchedulerStall refuses to dispatch one thread for a window of
	// scheduler steps.
	SchedulerStall
	numKinds
)

var kindNames = [...]string{
	"thread-crash", "lock-holder-crash", "spurious-wakeup",
	"shadow-bit-flip", "clock-pressure", "scheduler-stall",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// ParseKind converts a fault-kind name (as printed by String) to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (have %s)", s, strings.Join(kindNames[:], ", "))
}

// Kinds returns every fault kind, in matrix order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Injection is one planned fault. Only the fields relevant to Kind are
// meaningful.
type Injection struct {
	Kind Kind
	// TID is the target thread; -1 means any eligible thread
	// (SpuriousWakeup only).
	TID int
	// AtOps triggers ThreadCrash when the target's deterministic counter
	// reaches this value.
	AtOps uint64
	// AtAcquire triggers LockHolderCrash at the target's n-th successful
	// mutex acquisition.
	AtAcquire uint64
	// AtStep triggers SpuriousWakeup/SchedulerStall at this scheduler
	// step (first opportunity at or after it).
	AtStep uint64
	// StallFor is the SchedulerStall window length in steps.
	StallFor uint64
	// AtAccess triggers ShadowBitFlip at this shared-access ordinal.
	AtAccess uint64
	// Bit is the epoch bit flipped by ShadowBitFlip. The default plans
	// use bit 31 — the reserved expand bit — which the epoch sanity
	// layer always detects; flips inside the live clock/tid fields are
	// Byzantine and only detectable when they land out of bounds.
	Bit uint
	// ClockBits is the narrowed clock width for ClockPressure.
	ClockBits uint
}

func (i Injection) String() string {
	switch i.Kind {
	case ThreadCrash:
		return fmt.Sprintf("%s(tid=%d,ops=%d)", i.Kind, i.TID, i.AtOps)
	case LockHolderCrash:
		return fmt.Sprintf("%s(tid=%d,acquire=%d)", i.Kind, i.TID, i.AtAcquire)
	case SpuriousWakeup:
		return fmt.Sprintf("%s(tid=%d,step=%d)", i.Kind, i.TID, i.AtStep)
	case ShadowBitFlip:
		return fmt.Sprintf("%s(access=%d,bit=%d)", i.Kind, i.AtAccess, i.Bit)
	case ClockPressure:
		return fmt.Sprintf("%s(clockbits=%d)", i.Kind, i.ClockBits)
	case SchedulerStall:
		return fmt.Sprintf("%s(tid=%d,step=%d,for=%d)", i.Kind, i.TID, i.AtStep, i.StallFor)
	}
	return i.Kind.String()
}

// Plan is a deterministic set of injections for one run. The zero Plan
// injects nothing.
type Plan struct {
	// Seed identifies the plan for reports; it is the seed PlanFor
	// derived the triggers from, not the machine scheduler seed.
	Seed       int64
	Injections []Injection
}

func (p Plan) String() string {
	if len(p.Injections) == 0 {
		return "no-faults"
	}
	parts := make([]string, len(p.Injections))
	for i, inj := range p.Injections {
		parts[i] = inj.String()
	}
	return strings.Join(parts, "+")
}

// ClockBits returns the narrowest clock width requested by a ClockPressure
// injection, or 0 when the plan leaves the layout alone.
func (p Plan) ClockBits() uint {
	var bits uint
	for _, inj := range p.Injections {
		if inj.Kind == ClockPressure && inj.ClockBits > 0 && (bits == 0 || inj.ClockBits < bits) {
			bits = inj.ClockBits
		}
	}
	return bits
}

// Profile summarizes a calibration run (a fault-free execution of the same
// workload, seed, and scale): PlanFor places triggers inside the profiled
// extent so the injected fault actually fires.
type Profile struct {
	Ops            uint64 // total deterministic events
	Steps          uint64 // scheduler dispatches
	SharedAccesses uint64 // instrumented accesses
	SyncOps        uint64 // synchronization operations (clock ticks)
	Threads        int    // threads ever started, including the root
}

// PlanFor derives a deterministic single-fault plan of kind k from seed,
// aimed inside the profiled run. The same (k, seed, prof) always yields
// the same plan.
func PlanFor(k Kind, seed int64, prof Profile) Plan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	frac := 0.2 + 0.6*rng.Float64() // land 20–80% into the run
	at := func(total uint64) uint64 {
		v := uint64(float64(total) * frac)
		if v < 1 {
			v = 1
		}
		return v
	}
	threads := prof.Threads
	if threads < 1 {
		threads = 1
	}
	// Prefer a non-root victim so the run can degrade rather than end.
	tid := 0
	if threads > 1 {
		tid = 1 + rng.Intn(threads-1)
	}
	inj := Injection{Kind: k, TID: tid}
	switch k {
	case ThreadCrash:
		perThread := prof.Ops / uint64(threads)
		inj.AtOps = at(perThread)
	case LockHolderCrash:
		inj.AtAcquire = 1 + uint64(rng.Intn(3))
	case SpuriousWakeup:
		inj.TID = -1 // first condition waiter at or after the step
		// Condition waits often cluster early in a run (pipeline fill,
		// work-queue startup), so land in the first quarter of the
		// profiled extent rather than 20–80% in.
		inj.AtStep = at(prof.Steps) / 4
		if inj.AtStep < 1 {
			inj.AtStep = 1
		}
	case ShadowBitFlip:
		inj.AtAccess = at(prof.SharedAccesses)
		inj.Bit = 31 // reserved expand bit: always caught by the sanity layer
	case ClockPressure:
		inj.ClockBits = pressureClockBits(prof)
	case SchedulerStall:
		inj.AtStep = at(prof.Steps)
		inj.StallFor = 200 + uint64(rng.Intn(800))
	}
	return Plan{Seed: seed, Injections: []Injection{inj}}
}

// pressureClockBits picks a clock width narrow enough that the profiled
// run's per-thread clock (one tick per release-type sync op) is forced
// through at least a few rollover resets, clamped to [2, 10] bits so the
// layout stays valid and the run stays tractable.
func pressureClockBits(prof Profile) uint {
	threads := prof.Threads
	if threads < 1 {
		threads = 1
	}
	perThread := prof.SyncOps / uint64(threads)
	bits := uint(2)
	// Widen while a rollover would still happen ~4 times: MaxClock at
	// bits+1 must stay below perThread/4.
	for bits < 10 && uint64(1)<<(bits+1) < perThread/4 {
		bits++
	}
	return bits
}

// Injector applies a Plan through the machine.Injector hook and records
// every fault that actually fired. An Injector is single-use: create a
// fresh one per machine run. ShadowBitFlip injections corrupt the shadow
// region of the detector the machine hands the hook, so they fire
// through any entry point that accepts an injector.
type Injector struct {
	plan  Plan
	done  []bool
	fired []string
}

// shadowed is a detector whose metadata lives in a shadow region (the
// CLEAN detector).
type shadowed interface{ Epochs() *shadow.Region }

// New returns an injector for plan p.
func New(p Plan) *Injector {
	return &Injector{plan: p, done: make([]bool, len(p.Injections))}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Fired returns a deterministic log of the injections that fired, in
// firing order; replaying the same (seed, plan) yields the same log.
func (in *Injector) Fired() []string {
	out := make([]string, len(in.fired))
	copy(out, in.fired)
	return out
}

func (in *Injector) fire(i int, format string, args ...interface{}) {
	in.done[i] = true
	in.fired = append(in.fired, fmt.Sprintf(format, args...))
}

// Crash implements machine.Injector.
func (in *Injector) Crash(tid int, counter uint64) bool {
	for i, inj := range in.plan.Injections {
		if inj.Kind == ThreadCrash && !in.done[i] && inj.TID == tid && counter >= inj.AtOps {
			in.fire(i, "thread-crash tid=%d counter=%d", tid, counter)
			return true
		}
	}
	return false
}

// CrashOnAcquire implements machine.Injector.
func (in *Injector) CrashOnAcquire(tid int, n uint64) bool {
	for i, inj := range in.plan.Injections {
		if inj.Kind == LockHolderCrash && !in.done[i] && inj.TID == tid && n >= inj.AtAcquire {
			in.fire(i, "lock-holder-crash tid=%d acquire=%d", tid, n)
			return true
		}
	}
	return false
}

// StallDispatch implements machine.Injector.
func (in *Injector) StallDispatch(step uint64, tid int) bool {
	for i, inj := range in.plan.Injections {
		if inj.Kind != SchedulerStall || inj.TID != tid {
			continue
		}
		if step >= inj.AtStep && step < inj.AtStep+inj.StallFor {
			if !in.done[i] {
				in.fire(i, "scheduler-stall tid=%d step=%d for=%d", tid, step, inj.StallFor)
			}
			return true
		}
	}
	return false
}

// SpuriousWake implements machine.Injector.
func (in *Injector) SpuriousWake(step uint64, tid int) bool {
	for i, inj := range in.plan.Injections {
		if inj.Kind != SpuriousWakeup || in.done[i] || step < inj.AtStep {
			continue
		}
		if inj.TID >= 0 && inj.TID != tid {
			continue
		}
		in.fire(i, "spurious-wakeup tid=%d step=%d", tid, step)
		return true
	}
	return false
}

// OnSharedAccess implements machine.Injector: at the planned access, flip
// the planned bit of the epoch shadowing addr in det's shadow region. A
// detector without one (none, FastTrack, the TSan-like baseline) leaves
// the injection unfired.
func (in *Injector) OnSharedAccess(n, addr uint64, det machine.Detector) {
	for i, inj := range in.plan.Injections {
		if inj.Kind != ShadowBitFlip || in.done[i] || n < inj.AtAccess {
			continue
		}
		sd, ok := det.(shadowed)
		if !ok {
			return
		}
		r := sd.Epochs()
		e := r.Load(addr)
		r.Store(addr, e^vclock.Epoch(1)<<inj.Bit)
		in.fire(i, "shadow-bit-flip access=%d addr=%#x bit=%d old=%#x", n, addr, inj.Bit, uint32(e))
	}
}
