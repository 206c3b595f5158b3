package predict

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/prog"
)

// TestLitmusPredictions pins the pipeline's behavior on the curated
// litmus corpus: every racy litmus yields at least one certified
// prediction, every race-free one yields none, and every prediction
// carries the full certification evidence (replayed exception, witness
// schedule, determinism hash).
func TestLitmusPredictions(t *testing.T) {
	for _, l := range prog.Litmuses() {
		res := Run(ProgramTarget(l.P), Options{Seed: 1})
		if l.Racy && len(res.Predictions) == 0 {
			t.Errorf("%s: racy litmus, no predictions (candidates %d, feasible %d, uncertified %d)",
				l.Name, res.Candidates, res.Feasible, res.Uncertified)
		}
		if !l.Racy && len(res.Predictions) != 0 {
			t.Errorf("%s: race-free litmus, %d predictions", l.Name, len(res.Predictions))
		}
		for i, p := range res.Predictions {
			if !p.Certified || p.Race == nil {
				t.Errorf("%s: prediction %d not certified", l.Name, i)
				continue
			}
			if p.Kind != machine.WAW && p.Kind != machine.RAW {
				t.Errorf("%s: prediction %d kind %v; CLEAN predicts only WAW/RAW", l.Name, i, p.Kind)
			}
			if p.Race.Kind != p.Kind {
				t.Errorf("%s: prediction %d replayed as %v, predicted %v", l.Name, i, p.Race.Kind, p.Kind)
			}
			if p.Race.Addr != p.Second.Addr || p.Race.Size != p.Second.Size {
				t.Errorf("%s: prediction %d exception at %#x/%d, witness completes at %#x/%d",
					l.Name, i, p.Race.Addr, p.Race.Size, p.Second.Addr, p.Second.Size)
			}
			if len(p.Schedule) == 0 || p.Hash == 0 {
				t.Errorf("%s: prediction %d missing schedule or hash", l.Name, i)
			}
		}
	}
}

// TestRunDeterministic re-runs the whole pipeline and requires identical
// results: same predictions in the same order with the same hashes. The
// witness schedules are part of the published evidence, so they must not
// wobble between invocations.
func TestRunDeterministic(t *testing.T) {
	for _, name := range []string{"waw", "chan-buffered-racy", "lock-shadow"} {
		p := prog.LitmusByName(name).P
		a := Run(ProgramTarget(p), Options{Seed: 1})
		b := Run(ProgramTarget(p), Options{Seed: 1})
		if len(a.Predictions) != len(b.Predictions) {
			t.Fatalf("%s: %d vs %d predictions across runs", name, len(a.Predictions), len(b.Predictions))
		}
		for i := range a.Predictions {
			pa, pb := a.Predictions[i], b.Predictions[i]
			if pa.Hash != pb.Hash || !reflect.DeepEqual(pa.Schedule, pb.Schedule) || *pa.Race != *pb.Race {
				t.Errorf("%s: prediction %d differs across identical runs", name, i)
			}
		}
	}
}

// TestSeedsCoverDifferentRecordings checks that the recording seed is
// honored: the recorder must observe the schedule the seed selects (the
// recordings differ in dispatch order), while certified race identities
// stay consistent for a program whose race is schedule-independent.
func TestSeedsCoverDifferentRecordings(t *testing.T) {
	p := prog.LitmusByName("waw").P
	for seed := int64(0); seed < 4; seed++ {
		res := Run(ProgramTarget(p), Options{Seed: seed})
		if len(res.Predictions) != 1 {
			t.Fatalf("seed %d: %d predictions, want 1", seed, len(res.Predictions))
		}
		pr := res.Predictions[0]
		if pr.Kind != machine.WAW || pr.Race.Addr != 0 {
			t.Errorf("seed %d: predicted %v @%#x, want WAW @0", seed, pr.Kind, pr.Race.Addr)
		}
	}
}

// TestRecordingShape checks the recorder against the known structure of
// a litmus: two workers, their shared accesses present in program order,
// and the global order covering every recorded event exactly once.
func TestRecordingShape(t *testing.T) {
	rec := Record(ProgramTarget(prog.LitmusByName("waw").P), Options{Seed: 1})
	if rec.Err != nil {
		t.Fatalf("recording failed: %v", rec.Err)
	}
	if len(rec.Threads) < 3 {
		t.Fatalf("recorded %d threads, want root + 2 workers", len(rec.Threads))
	}
	total := 0
	for s := range rec.Threads {
		for j, e := range rec.Threads[s] {
			if e.Thread != s || e.Index != j {
				t.Fatalf("event (%d,%d) self-identifies as (%d,%d)", s, j, e.Thread, e.Index)
			}
			total++
		}
	}
	if total != rec.Events {
		t.Fatalf("Events = %d, but threads hold %d", rec.Events, total)
	}
	for s := 1; s <= 2; s++ {
		var writes int
		for _, e := range rec.Threads[s] {
			if e.Kind == KindWrite {
				writes++
			}
		}
		if writes == 0 {
			t.Errorf("worker %d recorded no writes in the waw litmus", s)
		}
	}
}

// TestCommonLockPairsRejected pins the closure's lock rule: candidate
// pairs whose accesses sit in critical sections of the same lock are
// screened as candidates (no happens-before edge orders them) but must
// never produce a feasible reordering, because including both acquires
// forces the trace-earlier release into the witness and with it the
// other side's access — a cycle the closure rejects.
func TestCommonLockPairsRejected(t *testing.T) {
	res := Run(ProgramTarget(prog.LitmusByName("locked-counter").P), Options{Seed: 1})
	if res.Candidates == 0 {
		t.Fatal("locked-counter should screen candidate pairs (the weak screen ignores locks)")
	}
	if res.Feasible != 0 || len(res.Predictions) != 0 {
		t.Fatalf("locked-counter: %d feasible, %d predicted; want 0/0", res.Feasible, len(res.Predictions))
	}
}

// TestV1Schedule checks the run-length encoding of witness schedules
// into the unified api/v1 shape: root dispatches dropped, consecutive
// same-worker dispatches merged, spawn sequences shifted to worker
// indices.
func TestV1Schedule(t *testing.T) {
	ws := V1Schedule([]int{0, 1, 1, 0, 2, 2, 2, 1})
	want := []struct{ thread, ops int }{{0, 2}, {1, 3}, {0, 1}}
	if len(ws.Steps) != len(want) {
		t.Fatalf("steps %v, want %d entries", ws.Steps, len(want))
	}
	for i, s := range ws.Steps {
		if s.Thread != want[i].thread || s.Ops != want[i].ops {
			t.Errorf("step %d = {%d,%d}, want {%d,%d}", i, s.Thread, s.Ops, want[i].thread, want[i].ops)
		}
	}
}

// TestPredictionV1 checks the wire DTO of a real prediction: schema
// stamp, witness consistency, and the source-map hook.
func TestPredictionV1(t *testing.T) {
	res := Run(ProgramTarget(prog.LitmusByName("waw").P), Options{Seed: 1})
	if len(res.Predictions) != 1 {
		t.Fatalf("%d predictions, want 1", len(res.Predictions))
	}
	src := func(worker, index int) string { return "prog.go:1:1" }
	v1 := res.Predictions[0].V1(src)
	if v1.Schema != 1 || v1.Kind != "clean.v1.predicted-race" {
		t.Errorf("schema stamp %d/%q", v1.Schema, v1.Kind)
	}
	if !v1.Certified || v1.Witness == nil || v1.Schedule == nil {
		t.Fatalf("DTO dropped certification evidence: %+v", v1)
	}
	if v1.Witness.Kind != v1.Race {
		t.Errorf("witness kind %q, predicted %q", v1.Witness.Kind, v1.Race)
	}
	if !reflect.DeepEqual(v1.Witness.Schedule, v1.Schedule) {
		t.Error("witness schedule differs from the prediction's schedule")
	}
	if v1.First.Source != "prog.go:1:1" || v1.Second.Source != "prog.go:1:1" {
		t.Errorf("source map not applied: %q / %q", v1.First.Source, v1.Second.Source)
	}
	if v1.DeterminismHash == "" {
		t.Error("missing determinism hash")
	}
}

// TestCandidateCapIsReported: a screen that stops at MaxCandidates says
// so, and an uncapped screen does not.
func TestCandidateCapIsReported(t *testing.T) {
	p := &prog.Program{Region: 8, Threads: [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Write, Off: 0, Size: 8}},
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Write, Off: 0, Size: 8}},
	}}
	full := Run(ProgramTarget(p), Options{Seed: 1})
	if full.Capped || full.Candidates < 2 {
		t.Fatalf("uncapped run: capped=%v with %d candidates, want false with at least 2", full.Capped, full.Candidates)
	}
	capped := Run(ProgramTarget(p), Options{Seed: 1, MaxCandidates: 1})
	if !capped.Capped || capped.Candidates != 1 {
		t.Fatalf("MaxCandidates 1: capped=%v with %d candidates, want true with 1", capped.Capped, capped.Candidates)
	}
}
