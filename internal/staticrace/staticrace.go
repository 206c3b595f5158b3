// Package staticrace is a static race analyzer for internal/prog
// programs: it classifies every conflicting cross-thread access pair as
// RaceFree, MayRace, or MustRace without executing anything, giving the
// repository a pre-execution verdict that cross-validates the dynamic
// detectors and lets the model checker skip provably race-free programs.
//
// The analysis has three layers, all exact for the IR's fork/join-plus-
// locks structure:
//
//  1. May-happen-in-parallel: the root spawns every worker before joining
//     any, and performs no data accesses itself, so any two ops in
//     different workers may run in parallel; same-thread pairs are
//     ordered by program order.
//
//  2. Lockset (Eraser-style): each access is tagged with the set of locks
//     held at it. Two accesses holding a common lock sit in critical
//     sections of that lock; whichever section runs first publishes its
//     clock at the release and the other joins it at the acquire, so the
//     pair is happens-before ordered in every schedule — RaceFree. For
//     this IR the rule is also complete: no other mechanism orders
//     cross-thread accesses.
//
//  3. Witness schedules: for an unprotected conflicting pair, the
//     analyzer checks the two sequential-composition schedules ("thread A
//     runs to completion, then thread B", and vice versa). In the A-first
//     schedule, A's access is ordered before B's iff some lock is
//     released by A after the access and acquired by B before its own
//     access — the only happens-before channel that exists. If either
//     direction leaves the pair unordered, that schedule provably raises
//     a race exception (this pair races, or an earlier pair stops the
//     machine first — an exception either way): MustRace, with the
//     direction recorded as a replayable witness. If both sequential
//     schedules order the pair, a race may still hide in a finer
//     interleaving (see the "lock-shadow" litmus), but proving or
//     refuting it is beyond the lockset abstraction: MayRace.
//
// Programs with channels get two extra tools, because channels add a
// happens-before mechanism the lockset abstraction cannot see: a sound
// must-happen-before closure over program order and schedule-independent
// channel edges upgrades ordered pairs to RaceFree (see chanorder.go),
// and the witness check swaps the symbolic lock argument for running the
// two sequential schedules on the machine itself and reading each
// access's vector clock from its event stream (see runSequential).
// Channel-free programs keep the original symbolic path bit for bit.
//
// Verdicts carry WAW/RAW/WAR kind attribution in machine.RaceKind terms,
// so they are directly comparable to what CLEAN, FastTrack, and the
// reference oracle raise dynamically.
package staticrace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/vclock"
)

// Verdict classifies a pair (or a whole program).
type Verdict int

// The verdict lattice, ordered by increasing certainty of a race.
const (
	// RaceFree: no schedule races this pair (ordered or mutually
	// excluded by a common lock).
	RaceFree Verdict = iota
	// MayRace: unprotected, but neither sequential witness schedule
	// leaves the pair unordered; a race may exist in finer
	// interleavings.
	MayRace
	// MustRace: a recorded witness schedule provably raises a race
	// exception.
	MustRace
)

var verdictNames = [...]string{"RaceFree", "MayRace", "MustRace"}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Access is one data access of the program, tagged with its lockset.
type Access struct {
	// Thread and Index locate the op (worker index, op index).
	Thread int
	Index  int
	Off    uint64
	Size   int
	Write  bool
	// Lockset is the sorted set of locks held at the access.
	Lockset []int
}

func (a Access) String() string {
	kind := "read"
	if a.Write {
		kind = "write"
	}
	ls := "{}"
	if len(a.Lockset) > 0 {
		parts := make([]string, len(a.Lockset))
		for i, l := range a.Lockset {
			parts[i] = fmt.Sprint(l)
		}
		ls = "{" + strings.Join(parts, ",") + "}"
	}
	return fmt.Sprintf("t%d#%d %s [%d,%d) %s", a.Thread, a.Index, kind, a.Off, a.Off+uint64(a.Size), ls)
}

// Overlaps reports whether the two accesses touch a common byte.
func (a Access) Overlaps(b Access) bool {
	return a.Off < b.Off+uint64(b.Size) && b.Off < a.Off+uint64(a.Size)
}

// Pair is one conflicting cross-thread access pair with its verdict.
type Pair struct {
	A, B    Access
	Verdict Verdict
	// Kinds lists the race kinds the pair can manifest as: {WAW} for a
	// write/write pair; {RAW, WAR} for a read/write pair (the realized
	// kind depends on which access executes first).
	Kinds []machine.RaceKind
	// CommonLocks is the non-empty lock intersection of a RaceFree
	// protected pair (nil for ordered-by-program-order pairs, which do
	// not appear here — only cross-thread pairs are reported).
	CommonLocks []int
	// ChanOrdered marks a RaceFree pair proven by the channel
	// must-happen-before closure rather than a common lock.
	ChanOrdered bool
	// WitnessFirst is the worker that runs first in the sequential
	// witness schedule of a MustRace pair, -1 otherwise. The schedule is
	// replayable via prog.SequentialPicker(WitnessFirst, other).
	WitnessFirst int
}

func (p Pair) String() string {
	kinds := make([]string, len(p.Kinds))
	for i, k := range p.Kinds {
		kinds[i] = k.String()
	}
	s := fmt.Sprintf("%s × %s: %s (%s)", p.A, p.B, p.Verdict, strings.Join(kinds, "/"))
	switch {
	case len(p.CommonLocks) > 0:
		s += fmt.Sprintf(" protected by %v", p.CommonLocks)
	case p.ChanOrdered:
		s += " ordered by channel edges"
	case p.Verdict == MustRace:
		s += fmt.Sprintf(" witness: t%d first", p.WitnessFirst)
	}
	return s
}

// Report is the analysis result for one program.
type Report struct {
	// Accesses lists every data access with its lockset, in (thread,
	// index) order.
	Accesses []Access
	// Pairs lists every conflicting cross-thread pair, most severe
	// first (MustRace, then MayRace, then protected RaceFree pairs).
	Pairs []Pair
}

// Verdict returns the program-level verdict: the most severe pair
// verdict, or RaceFree for a program with no unprotected pairs.
func (r *Report) Verdict() Verdict {
	v := RaceFree
	for _, p := range r.Pairs {
		if p.Verdict > v {
			v = p.Verdict
		}
	}
	return v
}

// Counts returns the number of pairs per verdict.
func (r *Report) Counts() (raceFree, mayRace, mustRace int) {
	for _, p := range r.Pairs {
		switch p.Verdict {
		case RaceFree:
			raceFree++
		case MayRace:
			mayRace++
		default:
			mustRace++
		}
	}
	return
}

// Witness returns the worker pair and order of one MustRace witness
// schedule (the first reported MustRace pair): running first then second
// sequentially under prog.SequentialPicker provably raises a race
// exception under a precise detector. ok is false when the program has no
// MustRace pair.
func (r *Report) Witness() (first, second int, ok bool) {
	for _, p := range r.Pairs {
		if p.Verdict != MustRace {
			continue
		}
		if p.WitnessFirst == p.A.Thread {
			return p.A.Thread, p.B.Thread, true
		}
		return p.B.Thread, p.A.Thread, true
	}
	return 0, 0, false
}

// threadFacts is the per-thread summary the witness check needs.
type threadFacts struct {
	accesses []Access
	// lastRelease maps lock → index of its last Unlock op (the release
	// whose published clock a later acquirer joins).
	lastRelease map[int]int
	// firstAcquire maps lock → index of its first Lock op.
	firstAcquire map[int]int
}

// Analyze runs the static analysis. The program must be valid
// (prog.Program.Validate); Analyze panics otherwise, mirroring how the
// machine treats malformed programs.
func Analyze(p *prog.Program) *Report {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("staticrace: %v", err))
	}
	facts := make([]threadFacts, len(p.Threads))
	rep := &Report{}
	for th, ops := range p.Threads {
		f := threadFacts{
			lastRelease:  map[int]int{},
			firstAcquire: map[int]int{},
		}
		var held []int
		for i, o := range ops {
			switch o.Kind {
			case prog.Read, prog.Write:
				ls := append([]int(nil), held...)
				sort.Ints(ls)
				f.accesses = append(f.accesses, Access{
					Thread: th, Index: i,
					Off: o.Off, Size: o.Size,
					Write:   o.Kind == prog.Write,
					Lockset: ls,
				})
			case prog.Lock:
				held = append(held, o.Lock)
				if _, seen := f.firstAcquire[o.Lock]; !seen {
					f.firstAcquire[o.Lock] = i
				}
			case prog.Unlock:
				for j := len(held) - 1; j >= 0; j-- {
					if held[j] == o.Lock {
						held = append(held[:j], held[j+1:]...)
						break
					}
				}
				f.lastRelease[o.Lock] = i
			}
		}
		facts[th] = f
		rep.Accesses = append(rep.Accesses, f.accesses...)
	}

	// Channel programs use the must-happen-before closure and machine
	// runs of the sequential schedules; channel-free programs keep the
	// symbolic path (identical output to the pre-channel analyzer).
	var ord *opOrder
	var runs map[[2]int]*seqRun
	if len(p.Chans) > 0 {
		ord = mustOrder(p)
		runs = map[[2]int]*seqRun{}
	}

	for ta := 0; ta < len(facts); ta++ {
		for tb := ta + 1; tb < len(facts); tb++ {
			// Fork/join MHP: every pair of workers runs in parallel.
			for _, a := range facts[ta].accesses {
				for _, b := range facts[tb].accesses {
					if !a.Overlaps(b) || (!a.Write && !b.Write) {
						continue
					}
					if ord != nil {
						rep.Pairs = append(rep.Pairs, classifyChan(p, a, b, ord, runs))
					} else {
						rep.Pairs = append(rep.Pairs, classify(a, b, facts[ta], facts[tb]))
					}
				}
			}
		}
	}
	sort.SliceStable(rep.Pairs, func(i, j int) bool {
		return rep.Pairs[i].Verdict > rep.Pairs[j].Verdict
	})
	return rep
}

// classify produces the verdict for one conflicting cross-thread pair.
func classify(a, b Access, fa, fb threadFacts) Pair {
	pair := newPair(a, b)
	if pair.CommonLocks != nil {
		return pair
	}
	switch {
	case !orderedSequential(a, fa, b, fb):
		pair.Verdict = MustRace
		pair.WitnessFirst = a.Thread
	case !orderedSequential(b, fb, a, fa):
		pair.Verdict = MustRace
		pair.WitnessFirst = b.Thread
	default:
		pair.Verdict = MayRace
	}
	return pair
}

// newPair starts the verdict for a conflicting cross-thread pair: its
// race kinds, and RaceFree with the common locks when a lock protects
// it.
func newPair(a, b Access) Pair {
	pair := Pair{A: a, B: b, WitnessFirst: -1}
	if a.Write && b.Write {
		pair.Kinds = []machine.RaceKind{machine.WAW}
	} else {
		pair.Kinds = []machine.RaceKind{machine.RAW, machine.WAR}
	}
	if common := intersect(a.Lockset, b.Lockset); len(common) > 0 {
		pair.Verdict = RaceFree
		pair.CommonLocks = common
	}
	return pair
}

// classifyChan produces the verdict for one pair of a program with
// channels. Common locks still prove mutual exclusion; the channel
// must-happen-before closure proves ordering; otherwise the two
// sequential witness schedules run on the machine, and a schedule that
// executes both accesses with concurrent clocks is a replayable MustRace
// witness. runs caches the schedules by (first, second) worker.
func classifyChan(p *prog.Program, a, b Access, ord *opOrder, runs map[[2]int]*seqRun) Pair {
	pair := newPair(a, b)
	if pair.CommonLocks != nil {
		return pair
	}
	if ord.Ordered(a.Thread, a.Index, b.Thread, b.Index) ||
		ord.Ordered(b.Thread, b.Index, a.Thread, a.Index) {
		pair.Verdict = RaceFree
		pair.ChanOrdered = true
		return pair
	}
	for _, order := range [][2]int{{a.Thread, b.Thread}, {b.Thread, a.Thread}} {
		run, ok := runs[order]
		if !ok {
			run = runSequential(p, order[0], order[1])
			runs[order] = run
		}
		avc, aok := run.clock(p, a)
		bvc, bok := run.clock(p, b)
		if aok && bok && !avc.HappensBefore(bvc) && !bvc.HappensBefore(avc) {
			pair.Verdict = MustRace
			pair.WitnessFirst = order[0]
			return pair
		}
	}
	pair.Verdict = MayRace
	return pair
}

// seqRun is one sequential witness schedule executed on the machine, as
// a machine.Tracer: clocks[w][k] is the vector clock worker w's k-th data
// access carried. A schedule that deadlocks keeps the accesses that
// executed before it.
type seqRun struct {
	clocks [][]vclock.VC
}

// runSequential executes p under prog.SequentialPicker(first, second) on
// a fresh machine with seed 0, no deterministic synchronization and no
// detector. That is the run a MustRace witness replays with a detector
// attached, so an unordered pair here reproduces as a race exception
// there: this pair raises, or an earlier unordered pair stops the
// machine first. Even a mutex released to several waiters wakes the
// same one in both runs.
func runSequential(p *prog.Program, first, second int) *seqRun {
	r := &seqRun{clocks: make([][]vclock.VC, len(p.Threads))}
	m := machine.New(machine.Config{Tracer: r, Picker: prog.SequentialPicker(first, second)})
	root, _ := p.Build(m)
	_ = m.Run(root) // a deadlock ends the schedule; the executed prefix stands
	return r
}

// clock returns the clock access a carried in the run, if it executed.
func (r *seqRun) clock(p *prog.Program, a Access) (vclock.VC, bool) {
	k := 0 // a's ordinal among its worker's data accesses
	for _, op := range p.Threads[a.Thread][:a.Index] {
		if op.Kind == prog.Read || op.Kind == prog.Write {
			k++
		}
	}
	if k < len(r.clocks[a.Thread]) {
		return r.clocks[a.Thread][k], true
	}
	return vclock.VC{}, false
}

// Access implements machine.Tracer. Worker w runs as spawn sequence
// w+1; the root (sequence 0) accesses no data.
func (r *seqRun) Access(t *machine.Thread, addr uint64, size int, write, shared bool) {
	if w := t.Seq - 1; w >= 0 {
		r.clocks[w] = append(r.clocks[w], t.VC.Copy())
	}
}

// Sync implements machine.Tracer; the clocks already carry every edge.
func (r *seqRun) Sync(*machine.Thread, machine.SyncEvent, uint64, int, int) {}

// Work implements machine.Tracer.
func (r *seqRun) Work(*machine.Thread, int) {}

// orderedSequential reports whether, in the schedule that runs first's
// whole thread before second's, first's access happens-before second's.
// The only happens-before channel between two workers is a lock released
// by the first thread after its access (publishing the access's clock;
// the joined value is the clock at the thread's *last* release, which
// covers the access iff some release follows it) and acquired by the
// second thread before its own access.
func orderedSequential(first Access, ff threadFacts, second Access, sf threadFacts) bool {
	for lock, rel := range ff.lastRelease {
		if rel <= first.Index {
			continue
		}
		if acq, ok := sf.firstAcquire[lock]; ok && acq < second.Index {
			return true
		}
	}
	return false
}

func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
