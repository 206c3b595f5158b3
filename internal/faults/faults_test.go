package faults

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/vclock"
)

var testProfile = Profile{Ops: 100_000, Steps: 20_000, SharedAccesses: 8_000, SyncOps: 2_000, Threads: 9}

func TestPlanForDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		a := PlanFor(k, 42, testProfile)
		b := PlanFor(k, 42, testProfile)
		if a.String() != b.String() {
			t.Errorf("%v: PlanFor not deterministic: %s vs %s", k, a, b)
		}
		c := PlanFor(k, 43, testProfile)
		if k != ClockPressure && a.String() == c.String() {
			t.Errorf("%v: different seeds produced identical plan %s", k, a)
		}
	}
}

func TestPlanForTriggersInsideProfile(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := PlanFor(ThreadCrash, seed, testProfile)
		inj := p.Injections[0]
		perThread := testProfile.Ops / uint64(testProfile.Threads)
		if inj.AtOps < 1 || inj.AtOps > perThread {
			t.Errorf("seed %d: AtOps = %d outside (0, %d]", seed, inj.AtOps, perThread)
		}
		if inj.TID < 1 || inj.TID >= testProfile.Threads {
			t.Errorf("seed %d: TID = %d, want a non-root victim", seed, inj.TID)
		}
	}
}

func TestPressureClockBitsForcesRollover(t *testing.T) {
	bits := pressureClockBits(testProfile)
	perThread := testProfile.SyncOps / uint64(testProfile.Threads)
	if max := uint64(1) << bits; max*2 > perThread {
		t.Errorf("ClockBits %d (MaxClock %d) too wide for %d sync ops per thread", bits, max-1, perThread)
	}
	if bits < 2 {
		t.Errorf("ClockBits = %d, want at least 2", bits)
	}
	// Tiny profiles still yield a valid layout.
	if got := pressureClockBits(Profile{Threads: 1}); got < 2 || got > 10 {
		t.Errorf("empty profile ClockBits = %d, want within [2, 10]", got)
	}
}

func TestParseKindRoundTrips(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("meteor-strike"); err == nil {
		t.Error("ParseKind should reject unknown kinds")
	}
}

func TestInjectorFiresOnce(t *testing.T) {
	p := Plan{Seed: 1, Injections: []Injection{{Kind: ThreadCrash, TID: 3, AtOps: 10}}}
	in := New(p)
	if in.Crash(2, 50) {
		t.Error("wrong tid must not crash")
	}
	if in.Crash(3, 9) {
		t.Error("below the trigger must not crash")
	}
	if !in.Crash(3, 10) {
		t.Error("at the trigger must crash")
	}
	if in.Crash(3, 11) {
		t.Error("the injection is one-shot")
	}
	if n := len(in.Fired()); n != 1 {
		t.Errorf("Fired() has %d entries, want 1", n)
	}
}

// shadowDetector is a detector whose metadata is the shadow region r.
type shadowDetector struct{ r *shadow.Region }

func (shadowDetector) Name() string                                      { return "shadow" }
func (shadowDetector) OnAccess(*machine.Thread, uint64, int, bool) error { return nil }
func (shadowDetector) Reset()                                            {}
func (d shadowDetector) Epochs() *shadow.Region                          { return d.r }

func TestInjectorBitFlip(t *testing.T) {
	r := shadow.New()
	layout := vclock.DefaultLayout
	orig := layout.Pack(3, 7)
	r.Store(0x40, orig)
	p := Plan{Seed: 1, Injections: []Injection{{Kind: ShadowBitFlip, AtAccess: 5, Bit: 31}}}
	in := New(p)
	in.OnSharedAccess(5, 0x40, nil)
	if len(in.Fired()) != 0 {
		t.Fatalf("flip fired with no detector: %v", in.Fired())
	}
	det := shadowDetector{r}
	in.OnSharedAccess(4, 0x40, det)
	if got := r.Load(0x40); got != orig {
		t.Fatalf("flip fired early: %#x", uint32(got))
	}
	in.OnSharedAccess(5, 0x40, det)
	want := orig ^ 1<<31
	if got := r.Load(0x40); got != want {
		t.Fatalf("epoch = %#x, want bit 31 flipped (%#x)", uint32(got), uint32(want))
	}
	in.OnSharedAccess(6, 0x40, det)
	if got := r.Load(0x40); got != want {
		t.Fatal("bit flip is one-shot")
	}
	if len(in.Fired()) != 1 {
		t.Errorf("Fired() = %v, want one entry", in.Fired())
	}
}

func TestStallWindow(t *testing.T) {
	p := Plan{Seed: 1, Injections: []Injection{{Kind: SchedulerStall, TID: 2, AtStep: 100, StallFor: 50}}}
	in := New(p)
	if in.StallDispatch(99, 2) {
		t.Error("stall before the window")
	}
	if !in.StallDispatch(100, 2) || !in.StallDispatch(149, 2) {
		t.Error("stall missing inside the window")
	}
	if in.StallDispatch(150, 2) {
		t.Error("stall after the window")
	}
	if in.StallDispatch(120, 3) {
		t.Error("stall hit the wrong thread")
	}
	if len(in.Fired()) != 1 {
		t.Errorf("Fired() = %v, want the window logged once", in.Fired())
	}
}
