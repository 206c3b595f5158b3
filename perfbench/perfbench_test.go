package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
)

// The benchmark runs from the root of the checkout, one directory up.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: no percentile qualifies
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got, ok := tailPercentile(tc.n)
		if !ok {
			got = 0
		}
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if ok && tc.n-rank(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, got, tc.n-rank(tc.n, got))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	s := summarize(xs)
	if s.n != 100 || s.median != 50.5 || s.tailPct != 90 || s.tail != 90 {
		t.Errorf("summarize(1…100) = %+v, want n 100, median 50.5, p90 90", s)
	}
	if got := summarize([]float64{3, 1, 2}); got.median != 2 || got.tailPct != 0 {
		t.Errorf("summarize(3,1,2) = %+v, want median 2 and no tail", got)
	}
	if !strings.Contains(s.format("ms"), "p90 90 ms, n=100") {
		t.Errorf("format = %q", s.format("ms"))
	}
	if got := passMedian([]time.Duration{3, 9, 1}, func(d time.Duration) float64 { return float64(d) }); got != 3 {
		t.Errorf("passMedian = %v, want 3", got)
	}
}

// TestTruthTables pins the hand-written truth: the paper's roster and
// racy set, and the verdict table's coverage of the Go corpus.
func TestTruthTables(t *testing.T) {
	if len(allKernels) != 26 || len(paperRacy) != 17 {
		t.Fatalf("%d kernels, %d racy; the paper has 26 and 17", len(allKernels), len(paperRacy))
	}
	roster := map[string]bool{}
	for _, n := range allKernels {
		roster[n] = true
	}
	for n := range paperRacy {
		if !roster[n] {
			t.Errorf("racy %s is not in the roster", n)
		}
	}
	for _, n := range append(append([]string{}, accessKernels...), syncKernels...) {
		if !roster[n] || n == "canneal" {
			t.Errorf("kernel workload runs %s, which has no modified variant in the roster", n)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "gosrc", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus, table []string
	for _, f := range files {
		corpus = append(corpus, strings.TrimSuffix(filepath.Base(f), ".go"))
	}
	for _, v := range gosrcTruth {
		table = append(table, v.name)
	}
	sort.Strings(table)
	if strings.Join(corpus, ",") != strings.Join(table, ",") {
		t.Errorf("verdict table covers %v, corpus holds %v", table, corpus)
	}
}

func TestVerdictChecks(t *testing.T) {
	race, done := apiv1.OutcomeRaceException, apiv1.OutcomeCompleted
	for _, tc := range []struct {
		want    detectExpect
		outcome string
		ok      bool
	}{
		{mustRaise, race, true}, {mustRaise, done, false},
		{mustComplete, done, true}, {mustComplete, race, false},
		{eitherOutcome, race, true}, {eitherOutcome, done, true},
		{eitherOutcome, apiv1.OutcomeLivelock, false}, {mustRaise, apiv1.OutcomeError, false},
	} {
		if got := detectVerdictOK(tc.want, tc.outcome); got != tc.ok {
			t.Errorf("detectVerdictOK(%v, %s) = %v", tc.want, tc.outcome, got)
		}
	}
	for _, tc := range []struct {
		certified bool
		outcome   string
		n         int
		ok        bool
	}{
		{true, race, 1, true}, {true, race, 0, false}, {true, done, 0, false},
		{false, done, 0, true}, {false, race, 1, false}, {false, apiv1.OutcomeError, 0, false},
	} {
		if got := predictVerdictOK(tc.certified, tc.outcome, tc.n); got != tc.ok {
			t.Errorf("predictVerdictOK(%v, %s, %d) = %v", tc.certified, tc.outcome, tc.n, got)
		}
	}

	bank := gosrcJob{truth: gosrcTruth[0]}
	runs := func(outcome string, n int) []apiv1.RunResult {
		rs := make([]apiv1.RunResult, n)
		for i := range rs {
			rs[i] = apiv1.RunResult{Seed: int64(i), Outcome: outcome}
		}
		return rs
	}
	if err := checkJob(bank, &apiv1.Job{State: apiv1.JobDone, Runs: runs(race, detectSeeds)}); err != nil {
		t.Errorf("racy detection job: %v", err)
	}
	bad := runs(race, detectSeeds)
	bad[3].Outcome = done
	if checkJob(bank, &apiv1.Job{State: apiv1.JobDone, Runs: bad}) == nil {
		t.Error("a racy program's completed seed passed the check")
	}
	if checkJob(bank, &apiv1.Job{State: apiv1.JobRunning}) == nil {
		t.Error("an unfinished job passed the check")
	}
	pred := gosrcJob{truth: gosrcTruth[0], predict: true}
	if err := checkJob(pred, &apiv1.Job{State: apiv1.JobDone, Runs: []apiv1.RunResult{{Outcome: race, Predicted: make([]apiv1.PredictedRace, 1)}}}); err != nil {
		t.Errorf("predict job certifying one race: %v", err)
	}
	if checkJob(pred, &apiv1.Job{State: apiv1.JobDone, Runs: runs(done, 1)}) == nil {
		t.Error("a racy program's predict job certifying nothing passed the check")
	}
}

func TestLayerSum(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{}
	root := tr.add(rootName, 1, -1, 0, 100*ms)
	run := tr.add("machine.run", 1, root, 10*ms, 70*ms)
	tr.addAggregate("core.check", run, 20*ms)
	tr.add("workloads.build", 1, root, 70*ms, 99*ms)
	tr.add("config.none", 1, -1, 100*ms, 200*ms) // not under a traced root
	ls := tr.layerSums()
	want := map[string]time.Duration{"machine.run": 40 * ms, "core.check": 20 * ms, "workloads.build": 29 * ms}
	for n, d := range want {
		if ls.self[n] != d {
			t.Errorf("self[%s] = %v, want %v", n, ls.self[n], d)
		}
	}
	if len(ls.self) != len(want) || ls.total != 100*ms || ls.unattributed != 11*ms {
		t.Errorf("layer sum %+v, want total 100ms with 11ms unattributed", ls)
	}
	if ls.check() == nil {
		t.Error("11% unattributed passed a 2% tolerance")
	}

	// A server clock a hair behind the client's leaves a negative root
	// self time, which is within tolerance.
	tr = &tracer{}
	root = tr.add(rootName, 1, -1, 0, 1000*ms)
	tr.add("service.intake", 1, root, 0, 600*ms)
	tr.add("service.run", 1, root, 600*ms, 1001*ms)
	if err := tr.layerSums().check(); err != nil {
		t.Errorf("-0.1%% unattributed: %v", err)
	}
	if (&tracer{}).layerSums().check() == nil {
		t.Error("an empty trace passed the layer-sum check")
	}
}

func TestDerive(t *testing.T) {
	seen := map[int64]bool{}
	for p := 0; p < 50; p++ {
		for k := 0; k < 30; k++ {
			s := derive(7, p, k)
			if s < 0 || seen[s] || s != derive(7, p, k) {
				t.Fatalf("derive(7, %d, %d) = %d: negative, repeated or unstable", p, k, s)
			}
			seen[s] = true
		}
	}
	if derive(7, 1, 2) == derive(8, 1, 2) || derive(7, 1, 2) == derive(7, 2, 1) {
		t.Error("derive ignores the seed or the order of positions")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		what      string
		json, def []metricDef
	}{{"end_to_end", e2e, endToEndMetrics}, {"per_layer", layers, perLayerMetrics}} {
		if len(c.json) != len(c.def) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.what, len(c.json), len(c.def))
			continue
		}
		for i := range c.def {
			if c.json[i] != c.def[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.what, i, c.json[i], c.def[i])
			}
		}
	}
}

// TestSmoke runs every workload for the shortest time it allows, one
// pass or one pair of client passes, untraced and traced, and checks the
// result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				if err := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.001", "--trace", trace}, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				defs := endToEndMetrics
				if trace == "1" {
					defs = perLayerMetrics
					if _, err := os.Stat(filepath.Join(".bench_build", "spans", w.name+"-3.json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kernels-access", "--seconds", "0"},
		{"--workload", "kernels-access", "--trace", "2"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
