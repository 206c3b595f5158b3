package clean

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// nativeScheduleKernels are the kernels perfbench's kernels-access and
// kernels-sync workloads run, in that order.
var nativeScheduleKernels = []string{
	"lu_cb", "lu_ncb", "radix", "ocean_cp", "fft", "dedup",
	"fmm", "fluidanimate", "x264", "water_nsquared", "radiosity",
}

// TestNativeScheduleGolden pins the schedule full CLEAN (Kendo,
// YieldEvery 32) takes through the benchmark kernels at native scale, and
// the work its detector does there, for seeds 0-2: scheduler steps, Kendo
// wait yields, operations, synchronization operations and the output
// hash, then every core.* counter and the detector's shadow footprint at
// run end. These are the exact per-pass work counts behind the
// benchmark's machine.steps, kendo.wait_yields, core.checks,
// core.epoch_loads and shadow.lines_expanded, so a change to the
// scheduler, the check or the shadow region that moves any of them shows
// here first, named by kernel, seed and column. Regenerate with `go test
// -run NativeScheduleGolden -update` only after an intended change.
func TestNativeScheduleGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range nativeScheduleKernels {
		for seed := int64(0); seed < 3; seed++ {
			cfg := Config{
				Seed:              seed,
				Detection:         DetectCLEAN,
				DeterministicSync: true,
				YieldEvery:        32,
				Metrics:           NewMetrics(),
			}
			rep, err := RunWorkload(name, "native", true, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, rep.Err)
			}
			counters := cfg.Metrics.Snapshot().Counters
			var core []string
			for n := range counters {
				if strings.HasPrefix(n, "core.") {
					core = append(core, n)
				}
			}
			sort.Strings(core)
			if buf.Len() == 0 {
				fmt.Fprintf(&buf, "# kernel seed steps det_wait_yields ops sync_ops output_hash %s"+
					" footprint.mapped_pages footprint.lines_compact footprint.lines_expanded footprint.metadata_bytes\n",
					strings.Join(core, " "))
			}
			s := rep.Stats
			fmt.Fprintf(&buf, "%s %d %d %d %d %d %#016x",
				name, seed, s.Steps, s.DetWaitYields, s.Ops, s.SyncOps, rep.OutputHash)
			for _, n := range core {
				fmt.Fprintf(&buf, " %d", counters[n])
			}
			f := rep.Footprint
			fmt.Fprintf(&buf, " %d %d %d %d\n", f.MappedPages, f.LinesCompact, f.LinesExpanded, f.MetadataBytes)
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
	if d := firstCellDiff(string(got), string(want)); d != "" {
		t.Errorf("native schedule differs from %s: %s; regenerate with -update if intended", golden, d)
	}
}

// firstCellDiff compares two whitespace-separated tables whose first line
// is a "# column ..." header and whose rows start with a kernel and a
// seed. It names the first differing cell by row and column with both
// values, or returns "" when the tables are identical.
func firstCellDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if g[0] != w[0] {
		return fmt.Sprintf("header is %q, golden %q", g[0], w[0])
	}
	header := strings.Fields(strings.TrimPrefix(w[0], "#"))
	cell := func(fields []string, i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return "<none>"
	}
	for i := 1; i < len(g) || i < len(w); i++ {
		var gf, wf []string
		if i < len(g) {
			gf = strings.Fields(g[i])
		}
		if i < len(w) {
			wf = strings.Fields(w[i])
		}
		row := wf
		if len(row) < 2 {
			row = gf
		}
		for j := 0; j < len(gf) || j < len(wf); j++ {
			if gv, wv := cell(gf, j), cell(wf, j); gv != wv {
				col := cell(header, j)
				return fmt.Sprintf("%s seed %s: %s = %s, golden %s", cell(row, 0), cell(row, 1), col, gv, wv)
			}
		}
	}
	return "tables differ only in whitespace"
}
