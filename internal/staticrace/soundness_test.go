// Soundness contract of the static analyzer, cross-validated dynamically
// over fuzzed programs and the channel corpus (external test package: it
// drives internal/explore, which imports staticrace for pruning).
//
//   - RaceFree is a proof: exhaustive exploration under the reference
//     oracle (AllRaces — stricter than CLEAN, it also raises on WAR) must
//     find no exception in ANY interleaving.
//   - MustRace is a certainty: replaying the recorded witness schedule
//     under the oracle must raise a race exception.
//   - MayRace promises nothing and is only counted.
package staticrace_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/staticrace"
)

func oracleDet() machine.Detector { return oracle.New(oracle.AllRaces) }

func newCLEAN() machine.Detector { return core.New(core.Config{}) }

// fuzzPrograms returns the ≥200 generated programs the soundness tests
// run over: half from the small exhaustively-explorable configuration,
// half from the nested-lock configuration.
func fuzzPrograms() []*prog.Program {
	var ps []*prog.Program
	for seed := int64(0); seed < 100; seed++ {
		ps = append(ps, progen.Generate(progen.SmallConfig(seed)))
		ps = append(ps, progen.Generate(progen.NestedConfig(seed)))
	}
	return ps
}

// stripWork removes Work ops before exhaustive exploration. A Work op
// touches no shared state and creates no synchronization, so removing it
// changes neither the analyzer's view nor the set of reachable orderings
// of the remaining operations — it only deletes scheduling points that
// multiply the interleaving count without affecting any detector.
func stripWork(p *prog.Program) *prog.Program {
	q := &prog.Program{Region: p.Region, Locks: p.Locks, Chans: p.Chans}
	for _, ops := range p.Threads {
		var out []prog.Op
		for _, o := range ops {
			if o.Kind != prog.Work {
				out = append(out, o)
			}
		}
		q.Threads = append(q.Threads, out)
	}
	return q
}

// soundnessPrograms is the fuzzed set plus the channel corpus, less
// bankrace_mutex: it is race-free, so the check below would have to
// exhaust its interleavings, and there are over three million of them.
// gofront's corpus soundness test covers it with bounded exploration and
// sampled schedules instead.
func soundnessPrograms(t *testing.T) []*prog.Program {
	ps := fuzzPrograms()
	names, chanProgs := chanCorpus(t)
	for i, p := range chanProgs {
		if names[i] != "bankrace_mutex" {
			ps = append(ps, p)
		}
	}
	return ps
}

func TestSoundnessOnFuzzedPrograms(t *testing.T) {
	var raceFree, mayRace, mustRace int
	for i, p := range soundnessPrograms(t) {
		rep := staticrace.Analyze(p)
		switch rep.Verdict() {
		case staticrace.RaceFree:
			raceFree++
			// The proof obligation: no interleaving raises any race
			// exception. Explored without pruning, obviously — the
			// point is to check the proof, not to assume it.
			res := explore.RunProgram(explore.Options{
				Detector: oracleDet,
				MaxRuns:  300000,
			}, stripWork(p), nil)
			if !res.Exhaustive() {
				t.Fatalf("program %d: race-free space truncated at %d runs; shrink the config", i, res.Runs)
			}
			if n := exceptionTotal(res); n != 0 {
				t.Errorf("program %d: RaceFree verdict but %d interleavings excepted: %+v\n%s",
					i, n, res, p)
			}
			if res.Deadlocks != 0 || res.OtherErrors != 0 {
				t.Errorf("program %d: stray failures in a race-free program: %+v", i, res)
			}
		case staticrace.MustRace:
			mustRace++
			first, second, ok := rep.Witness()
			if !ok {
				t.Fatalf("program %d: MustRace without a witness", i)
			}
			_, err := p.RunPicked(prog.SequentialPicker(first, second), oracleDet())
			var re *machine.RaceError
			if !errors.As(err, &re) {
				t.Errorf("program %d: MustRace witness (t%d then t%d) raised %v, want a race exception\n%s",
					i, first, second, err, p)
			}
		default:
			mayRace++
		}
	}
	t.Logf("verdicts over %d programs: %d RaceFree, %d MayRace, %d MustRace",
		raceFree+mayRace+mustRace, raceFree, mayRace, mustRace)
	// The contract must not be vacuous: the generator has to produce
	// both provably race-free and provably racy programs.
	if raceFree < 5 || mustRace < 5 {
		t.Fatalf("fuzz distribution too thin: %d RaceFree, %d MustRace", raceFree, mustRace)
	}
}

// TestRaceFreeVerdictAgreesWithCLEANExploration: the acceptance angle of
// the same contract under the production detector — staticrace never says
// RaceFree when exhaustive exploration under CLEAN finds an exception.
// (CLEAN raises on WAW/RAW only, a subset of the oracle check above, but
// this is the detector the verdicts are meant to gate.)
func TestRaceFreeVerdictAgreesWithCLEANExploration(t *testing.T) {
	checked := 0
	for i, p := range fuzzPrograms() {
		if staticrace.Analyze(p).Verdict() != staticrace.RaceFree {
			continue
		}
		checked++
		res := explore.RunProgram(explore.Options{
			Detector: func() machine.Detector { return newCLEAN() },
			MaxRuns:  300000,
		}, stripWork(p), nil)
		if !res.Exhaustive() {
			t.Fatalf("program %d: space truncated at %d runs", i, res.Runs)
		}
		if n := exceptionTotal(res); n != 0 {
			t.Errorf("program %d: RaceFree verdict but CLEAN excepted in %d interleavings\n%s", i, n, p)
		}
	}
	if checked == 0 {
		t.Fatal("no RaceFree programs generated; vacuous")
	}
}

func exceptionTotal(r explore.Result) int {
	n := 0
	for _, c := range r.Exceptions {
		n += c
	}
	return n
}
