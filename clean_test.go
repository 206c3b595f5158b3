package clean

import (
	"errors"
	"testing"

	"repro/internal/faults"
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
