package clean

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// nativeScheduleKernels are the kernels perfbench's kernels-access and
// kernels-sync workloads run, in that order.
var nativeScheduleKernels = []string{
	"lu_cb", "lu_ncb", "radix", "ocean_cp", "fft", "dedup",
	"fmm", "fluidanimate", "x264", "water_nsquared", "radiosity",
}

// TestNativeScheduleGolden pins the schedule full CLEAN (Kendo,
// YieldEvery 32) takes through the benchmark kernels at native scale:
// scheduler steps, Kendo wait yields, operations, synchronization
// operations and the output hash, for seeds 0-2. These are the exact
// per-pass work counts the benchmark's machine.steps and
// kendo.wait_yields report, so a change to the scheduler that moves any
// of them shows here first. Regenerate with `go test -run
// NativeScheduleGolden -update` only after an intended schedule change.
func TestNativeScheduleGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# kernel seed steps det_wait_yields ops sync_ops output_hash\n")
	for _, name := range nativeScheduleKernels {
		for seed := int64(0); seed < 3; seed++ {
			rep, err := RunWorkload(name, "native", true, Config{
				Seed:              seed,
				Detection:         DetectCLEAN,
				DeterministicSync: true,
				YieldEvery:        32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, rep.Err)
			}
			s := rep.Stats
			fmt.Fprintf(&buf, "%s %d %d %d %d %d %#016x\n",
				name, seed, s.Steps, s.DetWaitYields, s.Ops, s.SyncOps, rep.OutputHash)
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "schedule_native.golden")
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
		t.Errorf("native schedule differs from %s; regenerate with -update if intended\ngot:\n%s", golden, got)
	}
}
