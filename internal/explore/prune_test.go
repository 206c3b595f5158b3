package explore

import "testing"

// TestPruneMatchesExploration: on the litmuses the static analyzer proves
// race-free, the full search agrees — zero exceptions over the exhausted
// space.
func TestPruneMatchesExploration(t *testing.T) {
	for _, name := range []string{"locked-counter", "disjoint", "nested-locks"} {
		full := RunProgram(Options{Detector: cleanDet, MaxRuns: 200000}, litmus(t, name), nil)
		if !full.Exhaustive() {
			t.Logf("%s: bounded check over %d runs", name, full.Runs)
		}
		if len(full.Exceptions) != 0 && exceptionTotal(full) != 0 {
			t.Errorf("%s: statically race-free but dynamically excepting: %+v", name, full)
		}
		if full.Deadlocks != 0 || full.OtherErrors != 0 {
			t.Errorf("%s: stray failures: %+v", name, full)
		}
	}
}

func exceptionTotal(r Result) int {
	n := 0
	for _, c := range r.Exceptions {
		n += c
	}
	return n
}
