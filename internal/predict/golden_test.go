package predict

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden prediction digests")

// TestKernelPredictionsGolden pins the whole pipeline on every unmodified
// kernel at test scale, seed 0: the recording's size and cost, the
// screen/reorder/certify counts and every certified race with its replay
// digest. Any change to what the recorder or the replay driver sees of
// the machine's event stream moves at least one of these numbers.
// Regenerate with `go test -run KernelPredictionsGolden -update` only
// after an intended change to the pipeline.
func TestKernelPredictionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs predict on all 26 kernels")
	}
	var b strings.Builder
	for _, w := range workloads.All() {
		r := Run(WorkloadTarget(w, workloads.ScaleTest, workloads.Unmodified), Options{})
		fmt.Fprintf(&b, "%s events=%d record_steps=%d replay_steps=%d candidates=%d feasible=%d uncertified=%d\n",
			w.Name, r.Recording.Events, r.RecordSteps, r.ReplaySteps, r.Candidates, r.Feasible, r.Uncertified)
		for _, p := range r.Predictions {
			fmt.Fprintf(&b, "  %v %#x hash=%#016x\n", p.Kind, p.Race.Addr, p.Hash)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "kernels.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("predictions drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
