package staticrace

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/prog"
)

func analyzeLitmus(t *testing.T, name string) (*prog.Litmus, *Report) {
	t.Helper()
	lit := prog.LitmusByName(name)
	if lit == nil {
		t.Fatalf("litmus %q missing", name)
	}
	return lit, Analyze(lit.P)
}

func TestLitmusVerdicts(t *testing.T) {
	want := map[string]Verdict{
		"waw":            MustRace,
		"raw-war":        MustRace,
		"locked-counter": RaceFree,
		"disjoint":       RaceFree,
		"nested-locks":   RaceFree,
		"partial-lock":   MustRace,
		"lock-shadow":    MayRace,

		"chan-handoff":       RaceFree,
		"chan-buffered-racy": MustRace,
	}
	for name, v := range want {
		_, rep := analyzeLitmus(t, name)
		if got := rep.Verdict(); got != v {
			t.Errorf("%s: verdict %v, want %v\n%v", name, got, v, rep.Pairs)
		}
	}
}

func TestKindAttribution(t *testing.T) {
	_, rep := analyzeLitmus(t, "waw")
	if len(rep.Pairs) != 1 || len(rep.Pairs[0].Kinds) != 1 || rep.Pairs[0].Kinds[0] != machine.WAW {
		t.Fatalf("waw pairs: %v", rep.Pairs)
	}
	_, rep = analyzeLitmus(t, "raw-war")
	if len(rep.Pairs) != 1 {
		t.Fatalf("raw-war pairs: %v", rep.Pairs)
	}
	ks := rep.Pairs[0].Kinds
	if len(ks) != 2 || ks[0] != machine.RAW || ks[1] != machine.WAR {
		t.Fatalf("raw-war kinds: %v", ks)
	}
}

func TestProtectedPairRecordsCommonLocks(t *testing.T) {
	_, rep := analyzeLitmus(t, "locked-counter")
	if len(rep.Pairs) == 0 {
		t.Fatal("locked-counter has overlapping pairs; none reported")
	}
	for _, p := range rep.Pairs {
		if p.Verdict != RaceFree || len(p.CommonLocks) == 0 {
			t.Fatalf("pair %v not marked lock-protected", p)
		}
	}
}

func TestNestedLockProtection(t *testing.T) {
	// The nested-locks litmus protects via lock 1, which thread 0 holds
	// nested inside lock 0.
	_, rep := analyzeLitmus(t, "nested-locks")
	for _, p := range rep.Pairs {
		if len(p.CommonLocks) != 1 || p.CommonLocks[0] != 1 {
			t.Fatalf("common locks %v, want [1]: %v", p.CommonLocks, p)
		}
	}
}

// TestMustRaceWitnessReplays: for every MustRace litmus, replaying the
// recorded witness schedule under the reference oracle must raise a race
// exception — the analyzer's certainty is backed by an actual run.
func TestMustRaceWitnessReplays(t *testing.T) {
	for _, name := range []string{"waw", "raw-war", "partial-lock", "chan-buffered-racy"} {
		lit, rep := analyzeLitmus(t, name)
		first, second, ok := rep.Witness()
		if !ok {
			t.Fatalf("%s: no witness", name)
		}
		_, err := lit.P.RunPicked(prog.SequentialPicker(first, second), oracle.New(oracle.AllRaces))
		var re *machine.RaceError
		if !errors.As(err, &re) {
			t.Fatalf("%s: witness schedule (t%d first) raised %v, want a race exception", name, first, err)
		}
	}
}

// TestLockShadowRacesDynamically: the lock-shadow litmus is the analyzer's
// documented imprecision — MayRace statically, yet a race exists in a
// finer interleaving than the two sequential witnesses. A targeted
// schedule (thread 0 through its first critical section, then thread 1 to
// its write, then back) exhibits it.
func TestLockShadowRacesDynamically(t *testing.T) {
	lit, rep := analyzeLitmus(t, "lock-shadow")
	if rep.Verdict() != MayRace {
		t.Fatalf("verdict %v, want MayRace", rep.Verdict())
	}
	raced := false
	for seed := int64(0); seed < 200 && !raced; seed++ {
		_, err := lit.P.Run(seed, oracle.New(oracle.AllRaces), false)
		var re *machine.RaceError
		raced = errors.As(err, &re)
	}
	if !raced {
		t.Fatal("no sampled schedule raced the lock-shadow litmus; the MayRace middle verdict is vacuous here")
	}
}

func TestSameThreadPairsNotReported(t *testing.T) {
	p := &prog.Program{Region: 8, Locks: 0, Threads: [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Write, Off: 0, Size: 8}},
	}}
	rep := Analyze(p)
	if len(rep.Pairs) != 0 || rep.Verdict() != RaceFree {
		t.Fatalf("single-thread program reported %v", rep.Pairs)
	}
}

func TestReadReadNotConflicting(t *testing.T) {
	p := &prog.Program{Region: 8, Locks: 0, Threads: [][]prog.Op{
		{{Kind: prog.Read, Off: 0, Size: 8}},
		{{Kind: prog.Read, Off: 0, Size: 8}},
	}}
	if rep := Analyze(p); len(rep.Pairs) != 0 {
		t.Fatalf("read/read pair reported: %v", rep.Pairs)
	}
}

func TestPartialOverlapDetected(t *testing.T) {
	p := &prog.Program{Region: 16, Locks: 0, Threads: [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}},
		{{Kind: prog.Write, Off: 4, Size: 8}},
	}}
	rep := Analyze(p)
	if len(rep.Pairs) != 1 || rep.Verdict() != MustRace {
		t.Fatalf("overlapping [0,8)/[4,12) writes: %v", rep.Pairs)
	}
}

func TestAdjacentAccessesDoNotOverlap(t *testing.T) {
	p := &prog.Program{Region: 16, Locks: 0, Threads: [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}},
		{{Kind: prog.Write, Off: 8, Size: 8}},
	}}
	if rep := Analyze(p); len(rep.Pairs) != 0 {
		t.Fatalf("adjacent writes reported: %v", rep.Pairs)
	}
}

// TestChanHandoffPairChanOrdered: the handoff pair is proven race-free
// by the channel must-happen-before closure, not by locks.
func TestChanHandoffPairChanOrdered(t *testing.T) {
	_, rep := analyzeLitmus(t, "chan-handoff")
	if len(rep.Pairs) != 1 {
		t.Fatalf("pairs: %v", rep.Pairs)
	}
	p := rep.Pairs[0]
	if p.Verdict != RaceFree || !p.ChanOrdered || len(p.CommonLocks) != 0 {
		t.Fatalf("pair %v: want RaceFree via channel edges", p)
	}
}

// TestWaitGroupPatternRaceFree: the lowering gofront uses for
// sync.WaitGroup — a buffered channel with one send per Done and one
// receive per counted Add before the waiter's read — is proven race-free
// by the closure: each worker's write is ordered before the main
// thread's read through its send and the final receive. The workers'
// writes target disjoint slots, so no worker/worker pair conflicts.
func TestWaitGroupPatternRaceFree(t *testing.T) {
	p := &prog.Program{Region: 16, Locks: 0, Chans: []int{2}, Threads: [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Send, Chan: 0}},
		{{Kind: prog.Write, Off: 8, Size: 8}, {Kind: prog.Send, Chan: 0}},
		{{Kind: prog.Recv, Chan: 0}, {Kind: prog.Recv, Chan: 0},
			{Kind: prog.Read, Off: 0, Size: 8}, {Kind: prog.Read, Off: 8, Size: 8}},
	}}
	rep := Analyze(p)
	if rep.Verdict() != RaceFree {
		t.Fatalf("verdict %v, want RaceFree: %v", rep.Verdict(), rep.Pairs)
	}
	for _, pr := range rep.Pairs {
		if !pr.ChanOrdered {
			t.Fatalf("pair %v not proven by channel edges", pr)
		}
	}
}

// TestWaitGroupEarlyReadMustRace: reading after only one of two receives
// is the classic broken-WaitGroup bug — one worker's write is still
// concurrent with the read, and the sequential witness interpreter must
// find it.
func TestWaitGroupEarlyReadMustRace(t *testing.T) {
	p := &prog.Program{Region: 8, Locks: 0, Chans: []int{2}, Threads: [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Send, Chan: 0}},
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Send, Chan: 0}},
		{{Kind: prog.Recv, Chan: 0}, {Kind: prog.Read, Off: 0, Size: 8}},
	}}
	rep := Analyze(p)
	if rep.Verdict() != MustRace {
		t.Fatalf("verdict %v, want MustRace: %v", rep.Verdict(), rep.Pairs)
	}
	first, second, ok := rep.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	_, err := p.RunPicked(prog.SequentialPicker(first, second), oracle.New(oracle.AllRaces))
	var re *machine.RaceError
	if !errors.As(err, &re) {
		t.Fatalf("witness run: %v, want race exception", err)
	}
}

// TestReleaseAcquireOrdersOneDirection: t0 writes inside a critical
// section of M; t1 first cycles through M, then writes unprotected. The
// t0-first sequential schedule orders the pair (t0's release publishes
// the write, t1's acquire precedes its own), but the t1-first schedule
// leaves it unordered — MustRace with t1 as the witness's first thread.
func TestReleaseAcquireOrdersOneDirection(t *testing.T) {
	p := &prog.Program{Region: 8, Locks: 1, Threads: [][]prog.Op{
		{{Kind: prog.Lock, Lock: 0}, {Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Unlock, Lock: 0}},
		{{Kind: prog.Lock, Lock: 0}, {Kind: prog.Unlock, Lock: 0}, {Kind: prog.Write, Off: 0, Size: 8}},
	}}
	rep := Analyze(p)
	if rep.Verdict() != MustRace {
		t.Fatalf("verdict %v, want MustRace: %v", rep.Verdict(), rep.Pairs)
	}
	first, second, ok := rep.Witness()
	if !ok || first != 1 || second != 0 {
		t.Fatalf("witness = t%d then t%d (ok=%v), want t1 then t0", first, second, ok)
	}
	// And the witness indeed raises.
	_, err := p.RunPicked(prog.SequentialPicker(first, second), oracle.New(oracle.AllRaces))
	var re *machine.RaceError
	if !errors.As(err, &re) {
		t.Fatalf("witness run: %v, want race exception", err)
	}
}

// TestMultiWaiterReleaseMustRace: in both sequential schedules t0 sends
// on the two channels inside its critical section, so t1 and t2 both
// block on lock 0 and t0's unlock releases it to two waiters. The
// machine picks the winner with its seeded policy; the witness check
// runs the schedule on that same machine configuration, so it still
// proves the unprotected write/write pair racy, and the witness replay
// raises WAW.
func TestMultiWaiterReleaseMustRace(t *testing.T) {
	p := &prog.Program{Region: 8, Locks: 1, Chans: []int{1, 1}, Threads: [][]prog.Op{
		{{Kind: prog.Lock, Lock: 0}, {Kind: prog.Send, Chan: 0}, {Kind: prog.Send, Chan: 1}, {Kind: prog.Unlock, Lock: 0}},
		{{Kind: prog.Recv, Chan: 0}, {Kind: prog.Lock, Lock: 0}, {Kind: prog.Unlock, Lock: 0}, {Kind: prog.Write, Off: 0, Size: 8}},
		{{Kind: prog.Recv, Chan: 1}, {Kind: prog.Lock, Lock: 0}, {Kind: prog.Unlock, Lock: 0}, {Kind: prog.Write, Off: 0, Size: 8}},
	}}
	rep := Analyze(p)
	if rep.Verdict() != MustRace || len(rep.Pairs) != 1 {
		t.Fatalf("verdict %v, want one MustRace pair: %v", rep.Verdict(), rep.Pairs)
	}
	first, second, ok := rep.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	_, err := p.RunPicked(prog.SequentialPicker(first, second), oracle.New(oracle.AllRaces))
	var re *machine.RaceError
	if !errors.As(err, &re) || re.Kind != machine.WAW {
		t.Fatalf("witness run (t%d first): %v, want a WAW race exception", first, err)
	}
}
