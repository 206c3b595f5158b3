package clean

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/predict"
	"repro/internal/prog"
)

func TestQuickstartRaceDetected(t *testing.T) {
	m := NewMachine(Config{Detection: DetectCLEAN})
	x := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) { c.StoreU64(x, 1) })
		th.StoreU64(x, 2)
		th.Join(child)
	})
	var re *RaceError
	if !errors.As(err, &re) || re.Kind != WAW {
		t.Fatalf("err = %v, want WAW RaceError", err)
	}
}

func TestDetectionModes(t *testing.T) {
	racyRun := func(d Detection, seed int64) error {
		m := NewMachine(Config{Detection: d, Seed: seed})
		x := m.AllocShared(8, 8)
		return m.Run(func(th *Thread) {
			c := th.Spawn(func(c *Thread) { c.StoreU64(x, 1) })
			th.StoreU64(x, 2)
			th.Join(c)
		})
	}
	if err := racyRun(DetectNone, 0); err != nil {
		t.Errorf("DetectNone must not stop: %v", err)
	}
	for _, d := range []Detection{DetectCLEAN, DetectFastTrack, DetectTSanLite} {
		if err := racyRun(d, 0); err == nil {
			t.Errorf("detection mode %d missed an unordered write pair", d)
		}
	}
}

func TestRunWorkloadCompletes(t *testing.T) {
	rep, err := RunWorkload("fft", "test", true, Config{Detection: DetectCLEAN})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("fft modified raced: %v", rep.Err)
	}
	if rep.Stats.SharedAccesses() == 0 {
		t.Error("no shared accesses recorded")
	}
	if rep.OutputHash == 0 {
		t.Error("output hash missing")
	}
}

func TestRunWorkloadRacy(t *testing.T) {
	rep, err := RunWorkload("canneal", "test", false, Config{Detection: DetectCLEAN})
	if err != nil {
		t.Fatal(err)
	}
	var re *RaceError
	if !errors.As(rep.Err, &re) {
		t.Fatalf("canneal should race, got %v", rep.Err)
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	_, err := RunWorkload("freqmine", "test", true, Config{})
	var ue *UnknownWorkloadError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnknownWorkloadError", err)
	}
}

func TestWorkloadsRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) != 26 {
		t.Fatalf("registry has %d workloads, want 26", len(ws))
	}
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	var ref uint64
	for seed := int64(0); seed < 3; seed++ {
		rep, err := RunWorkload("barnes", "test", true, Config{
			Detection: DetectCLEAN, DeterministicSync: true, Seed: seed,
		})
		if err != nil || rep.Err != nil {
			t.Fatalf("seed %d: %v / %v", seed, err, rep.Err)
		}
		if seed == 0 {
			ref = rep.OutputHash
		} else if rep.OutputHash != ref {
			t.Fatalf("seed %d: output %x != ref %x", seed, rep.OutputHash, ref)
		}
	}
}

func TestNarrowClockRollsOver(t *testing.T) {
	rep, err := RunWorkload("fmm", "test", true, Config{
		Detection: DetectCLEAN, DeterministicSync: true,
		ClockBits: 5, TIDBits: 8, Seed: 1,
	})
	if err != nil || rep.Err != nil {
		t.Fatalf("%v / %v", err, rep.Err)
	}
	if rep.Stats.Rollovers == 0 {
		t.Error("expected rollover resets with a 5-bit clock")
	}
}

// TestWideClockLayoutSeesHighThreadIDs: under the 32-bit wide-clock
// layout (28 clock bits, 4 tid bits) bit 31 of an epoch is the top bit of
// the thread id. Ten threads run; thread 9 stores x, then sets a flag in
// private memory, which the main thread spins on before it loads x, so the
// load always follows the store with no synchronization between them. The
// RAW race on x, with thread 9 as the earlier writer, must be raised
// exactly as under the default layout on every seed.
func TestWideClockLayoutSeesHighThreadIDs(t *testing.T) {
	run := func(seed int64, opts ...Option) error {
		m, err := New(append(opts, WithDetection(DetectCLEAN), WithSeed(seed))...)
		if err != nil {
			t.Fatal(err)
		}
		x := m.AllocShared(8, 8)
		flag := m.AllocPrivate(8, 8)
		return m.Run(func(th *Thread) {
			for i := 1; i <= 9; i++ {
				th.Spawn(func(c *Thread) {
					if c.ID == 9 {
						c.StoreU64(x, 1)
						c.StoreU64(flag, 1)
					}
				})
			}
			for th.LoadU64(flag) == 0 {
			}
			th.LoadU64(x)
		})
	}
	for seed := int64(0); seed < 50; seed++ {
		want, got := run(seed), run(seed, WithEpochLayout(28, 4))
		var wr, gr *RaceError
		if !errors.As(want, &wr) || wr.Kind != RAW || wr.PrevTID != 9 {
			t.Fatalf("seed %d: default layout: Run = %v, want a RAW race on thread 9's store", seed, want)
		}
		if OutcomeOf(got) != OutcomeOf(want) || !errors.As(got, &gr) ||
			gr.Kind != wr.Kind || gr.Addr != wr.Addr || gr.PrevTID != wr.PrevTID {
			t.Fatalf("seed %d: wide-clock layout: Run = %v, want %v", seed, got, want)
		}
	}
}

// TestRunRejectsInvalidConfig: RunWorkload and RunProgram return the
// configuration's Validate error rather than running without a detector.
func TestRunRejectsInvalidConfig(t *testing.T) {
	p := prog.LitmusByName("waw").P
	for _, cfg := range []Config{
		{Detection: 99},
		{Detection: DetectFastTrack, DisableMultibyteOpt: true},
	} {
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("%+v validates", cfg)
		}
		if _, err := RunWorkload("fft", "test", false, cfg); err == nil || err.Error() != want.Error() {
			t.Errorf("RunWorkload(%+v) err = %v, want %v", cfg, err, want)
		}
		if _, err := RunProgram(p, cfg); err == nil || err.Error() != want.Error() {
			t.Errorf("RunProgram(%+v) err = %v, want %v", cfg, err, want)
		}
	}
}

// TestPredictRunsThroughRunPath: under DetectPredict, RunProgram and
// RunWorkload run the prediction pipeline on cfg's Seed and MaxSteps and
// return exactly what predict.Run returns, while a scheduled replay still
// runs once under CLEAN.
func TestPredictRunsThroughRunPath(t *testing.T) {
	p := prog.LitmusByName("waw").P
	for seed := int64(0); seed < 3; seed++ {
		cfg := Config{Detection: DetectPredict, Seed: seed, MaxSteps: 1000}
		rep, err := RunProgram(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := predict.Run(predict.ProgramTarget(p), predict.Options{Seed: seed, MaxSteps: 1000})
		if rep.Prediction == nil || rep.Err != want.Recording.Err || !reflect.DeepEqual(rep.Prediction.V1(nil), want.V1(nil)) {
			t.Errorf("seed %d: RunProgram predicted %+v (err %v), predict.Run %+v", seed, rep.Prediction, rep.Err, want)
		}
		if rep.Prediction != nil && len(rep.Prediction.Predictions) == 0 {
			t.Errorf("seed %d: waw predicted no race", seed)
		}
	}

	cfg := Config{Detection: DetectPredict, Seed: 1}
	rep, err := RunProgram(p, cfg, 0, 1)
	var re *RaceError
	if err != nil || rep.Prediction != nil || !errors.As(rep.Err, &re) || re.Kind != WAW {
		t.Errorf("scheduled replay under predict: err %v, prediction %v, run error %v; want a CLEAN WAW exception", err, rep.Prediction, rep.Err)
	}

	rep, err = RunWorkload("barnes", "test", false, cfg)
	if err != nil || rep.Prediction == nil || len(rep.Prediction.Predictions) == 0 {
		t.Errorf("RunWorkload under predict: err %v, report %+v; want barnes's certified races", err, rep)
	}
}

// TestShadowBitFlipFiresThroughRunWorkload: a ShadowBitFlip plan passed as
// Config.FaultInjector corrupts the run's own CLEAN detector, and the
// sanity check repairs the flipped epoch instead of raising a race.
func TestShadowBitFlipFiresThroughRunWorkload(t *testing.T) {
	inj := faults.New(faults.Plan{Seed: 1, Injections: []faults.Injection{
		{Kind: faults.ShadowBitFlip, AtAccess: 892, Bit: 31},
	}})
	rep, err := RunWorkload("fft", "test", true, Config{
		Detection: DetectCLEAN, DeterministicSync: true, Seed: 1,
		FaultInjector: inj, Metrics: NewMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("flipped bit surfaced as %v", rep.Err)
	}
	if len(inj.Fired()) != 1 {
		t.Fatalf("fired = %v, want the one bit flip", inj.Fired())
	}
	if n := rep.Telemetry.Counter("core.metadata_repairs"); n == 0 {
		t.Fatal("no metadata repair counted")
	}
}

// TestReportFootprint: CLEAN reports its whole shadow footprint, FastTrack
// only its metadata bytes, and a run without a detector none.
func TestReportFootprint(t *testing.T) {
	run := func(d Detection) Footprint {
		rep, err := RunWorkload("fft", "test", true, Config{Detection: d})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Footprint
	}
	if fp := run(DetectCLEAN); fp.MappedPages == 0 || fp.LinesCompact+fp.LinesExpanded == 0 || fp.MetadataBytes == 0 {
		t.Errorf("CLEAN footprint %+v has an empty field", fp)
	}
	if fp := run(DetectFastTrack); fp.MetadataBytes == 0 || fp != (Footprint{MetadataBytes: fp.MetadataBytes}) {
		t.Errorf("FastTrack footprint %+v, want MetadataBytes alone", fp)
	}
	if fp := run(DetectNone); fp != (Footprint{}) {
		t.Errorf("undetected run footprint %+v, want zero", fp)
	}
}
