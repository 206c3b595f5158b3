package clean

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/prog"
)

// kendoWaitKernels are the kernels whose Kendo waits the wait golden
// pins: the five the benchmark's kernels-sync workload runs, the
// pipeline kernels whose condition waits and queues refuse turns most
// often, and fft's barriers.
var kendoWaitKernels = []string{
	"fmm", "fluidanimate", "x264", "water_nsquared", "radiosity",
	"dedup", "ferret", "vips", "fft",
}

// TestKendoWaitGolden pins how every Kendo turn wait resolves under full
// CLEAN with deterministic synchronization and telemetry on: scheduler
// steps, wait yields, synchronization operations, the outcome and output
// hash, every kendo.* counter, the kendo.wait_yields and kendo.queue_depth
// histogram buckets, and an FNV-1a digest of the timeline, whose Kendo
// wait spans carry each wait's start and end. It covers the kernels above
// at test scale (seeds 0-2) under the default epoch layout and under a
// 5-bit clock, where rollover resets interleave with refused turns, and
// the six lowered Go-source programs (seeds 0-9), whose channel sends and
// receives wait for the turn too. Regenerate with `go test -run
// KendoWaitGolden -update` only after an intended schedule change.
func TestKendoWaitGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# run seed steps det_wait_yields sync_ops rollovers outcome output_hash"+
		" kendo.* counters, kendo.wait_yields buckets, kendo.queue_depth buckets, timeline fnv64a\n")
	row := func(name string, seed int64, cfg Config, run func(Config) (*Report, error)) {
		t.Helper()
		cfg.Seed = seed
		cfg.Detection = DetectCLEAN
		cfg.DeterministicSync = true
		cfg.Metrics, cfg.Timeline = NewMetrics(), NewTimeline()
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		s := rep.Stats
		fmt.Fprintf(&buf, "%s %d %d %d %d %d %s %#016x", name, seed,
			s.Steps, s.DetWaitYields, s.SyncOps, s.Rollovers, OutcomeOf(rep.Err), rep.OutputHash)
		snap := cfg.Metrics.Snapshot()
		var names []string
		for n := range snap.Counters {
			if strings.HasPrefix(n, "kendo.") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&buf, " %s=%d", n, snap.Counters[n])
		}
		for _, h := range []string{"kendo.wait_yields", "kendo.queue_depth"} {
			fmt.Fprintf(&buf, " %s=%v", h, snap.Histograms[h].Counts)
		}
		d := fnv.New64a()
		if _, err := cfg.Timeline.WriteTo(d); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, " timeline=%#016x\n", d.Sum64())
	}

	for _, layout := range []struct {
		name             string
		clockBits, tBits uint
	}{{"default", 0, 0}, {"clock5", 5, 8}} {
		for _, k := range kendoWaitKernels {
			for seed := int64(0); seed < 3; seed++ {
				row(k+"/"+layout.name, seed, Config{ClockBits: layout.clockBits, TIDBits: layout.tBits},
					func(cfg Config) (*Report, error) { return RunWorkload(k, "test", true, cfg) })
			}
		}
	}

	files, err := filepath.Glob(filepath.Join("testdata", "gosrc", "golden", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("gosrc lowerings: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prog.Parse(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		name := "gosrc/" + strings.TrimSuffix(filepath.Base(f), ".ir")
		for seed := int64(0); seed < 10; seed++ {
			row(name, seed, Config{}, func(cfg Config) (*Report, error) { return RunProgram(p, cfg) })
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "kendo_wait.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Kendo waits differ from %s; regenerate with -update if intended\ngot:\n%s", golden, got)
	}
}
