package telemetry

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	apiv1 "repro/api/v1"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("machine.shared_reads")
	c.Inc()
	c.Add(4)
	if got := r.Counter("machine.shared_reads").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("machine.shared_reads") != c {
		t.Fatal("re-registration returned a different handle")
	}
	g := r.Gauge("perf.slowdown")
	g.Set(2.5)
	g.Set(3.5)
	if got := r.Gauge("perf.slowdown").Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5 (last value wins)", got)
	}
	h := r.Histogram("kendo.wait_ops", 1, 10, 100)
	for _, v := range []float64{2, 20, 200} {
		h.Observe(v)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("histogram count = %d, want 3", got)
	}

	snap := r.Snapshot()
	if snap.Counters["machine.shared_reads"] != 5 {
		t.Errorf("snapshot counter = %d", snap.Counters["machine.shared_reads"])
	}
	if snap.Gauges["perf.slowdown"] != 3.5 {
		t.Errorf("snapshot gauge = %v", snap.Gauges["perf.slowdown"])
	}
	hs := snap.Histograms["kendo.wait_ops"]
	if hs.Count != 3 || hs.Min != 2 || hs.Max != 200 {
		t.Errorf("snapshot histogram = %+v", hs)
	}
	if hs.P50 <= 0 || hs.P99 < hs.P50 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v", hs.P50, hs.P99)
	}
}

// Every handle and the registry itself must be usable as nil — the
// disabled-telemetry contract instrumented code relies on.
func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 1, 2)
	c.Inc()
	c.Add(7)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Percentile(50) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if hs := h.Snapshot(); hs.Count != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	if r.CounterNames() != nil {
		t.Fatal("nil registry must list no counters")
	}
}

// The no-op (disabled) path and the live path must both be allocation-free:
// the machine calls these on every shared access.
func TestHandleOperationsDoNotAllocate(t *testing.T) {
	var nilC *Counter
	var nilH *Histogram
	r := NewRegistry()
	c := r.Counter("hot")
	h := r.Histogram("hist", 1, 10, 100, 1000)
	cases := []struct {
		name string
		fn   func()
	}{
		{"nil Counter.Add", func() { nilC.Add(1) }},
		{"live Counter.Add", func() { c.Add(1) }},
		{"nil Histogram.Observe", func() { nilH.Observe(3) }},
		{"live Histogram.Observe", func() { h.Observe(3) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v per op, want 0", tc.name, allocs)
		}
	}
}

func TestTimelineWritesValidTraceJSON(t *testing.T) {
	tl := NewTimeline()
	tl.SetThreadName(0, "thread 0 (root)")
	tl.Span(0, "SFR 0", "sfr", 0, 10)
	tl.Span(1, "hold m1", "lock", 5, 9)
	tl.Instant(0, "race WAW", "race", 10)
	var b strings.Builder
	if _, err := tl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// The file must be well-formed JSON with the trace-event envelope.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   uint64          `json:"ts"`
			Dur  uint64          `json:"dur"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	// 1 process_name + 2 thread_name metadata rows, then 3 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d rows, want 6:\n%s", len(doc.TraceEvents), out)
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
	}
	if byPh["M"] != 3 || byPh["X"] != 2 || byPh["i"] != 1 {
		t.Fatalf("row mix %v, want 3 M / 2 X / 1 i", byPh)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "SFR 0" && ev.Dur != 10 {
			t.Errorf("SFR span dur = %d, want 10", ev.Dur)
		}
		if ev.Ph == "i" && ev.S != "t" {
			t.Errorf("instant scope = %q, want t", ev.S)
		}
	}
}

func TestTimelineOutputIsByteStable(t *testing.T) {
	build := func() string {
		tl := NewTimeline()
		// Register tracks out of order: metadata must still sort by tid.
		tl.Span(3, "a", "c", 1, 2)
		tl.Span(1, "b", "c", 2, 4)
		tl.Instant(2, "x", "c", 3)
		var b strings.Builder
		tl.WriteTo(&b)
		return b.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("output differs across builds:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, `"thread 1"`) || strings.Index(first, `"thread 1"`) > strings.Index(first, `"thread 2"`) {
		t.Fatal("thread metadata not sorted by tid")
	}
}

func TestTimelineNilAndClamping(t *testing.T) {
	var tl *Timeline
	tl.Span(0, "a", "c", 0, 1)
	tl.Instant(0, "b", "c", 1)
	tl.SetThreadName(0, "x")
	if tl.Events() != 0 {
		t.Fatal("nil timeline must record nothing")
	}
	var b strings.Builder
	if _, err := tl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatalf("nil timeline output invalid: %s", b.String())
	}

	live := NewTimeline()
	live.Span(0, "backwards", "c", 10, 5) // end < start clamps to zero dur
	var out strings.Builder
	live.WriteTo(&out)
	if !strings.Contains(out.String(), `"dur":0`) {
		t.Fatalf("backwards span not clamped:\n%s", out.String())
	}
}

// TestRunReportRoundTrip: a registry snapshot drops into the api/v1 run
// report unconverted, and the report survives the strict decoder and
// re-encodes to identical bytes.
func TestRunReportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("machine.shared_reads").Add(123)
	reg.Counter("core.accesses").Add(456)
	reg.Gauge("perf.shared_per_1k_ops").Set(63.5)
	reg.Histogram("kendo.wait_ops", 1, 10, 100).Observe(7)

	r := apiv1.NewRunReport()
	r.Workload = "fft"
	r.Scale = "test"
	r.Variant = "modified"
	r.Detector = "clean"
	r.Seed = 3
	r.DetSync = true
	r.Outcome = "completed"
	r.ElapsedSeconds = 0.25
	r.OutputHash = FormatHash(0xdeadbeefcafef00d)
	r.Metrics = reg.Snapshot()

	data, err := apiv1.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := apiv1.DecodeRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "fft" || got.Seed != 3 || !got.DetSync || got.Outcome != "completed" {
		t.Fatalf("identity fields lost: %+v", got)
	}
	if got.Counter("machine.shared_reads") != 123 || got.Counter("core.accesses") != 456 {
		t.Fatalf("counters lost: %+v", got.Metrics.Counters)
	}
	if got.Gauge("perf.shared_per_1k_ops") != 63.5 {
		t.Fatalf("gauge lost: %v", got.Metrics.Gauges)
	}
	if hs := got.Metrics.Histograms["kendo.wait_ops"]; hs.Count != 1 {
		t.Fatalf("histogram lost: %+v", hs)
	}
	if got.OutputHash != "0xdeadbeefcafef00d" {
		t.Fatalf("hash lost: %q", got.OutputHash)
	}

	// Re-encoding the decoded report must be byte-identical: the format is
	// deterministic end to end.
	data2, err := apiv1.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-encode differs:\n%s\nvs\n%s", data, data2)
	}
}

// TestDecodeRejectsWrongSchemaAndKind: a bench file is checked like the
// run reports it holds — a wrong schema or kind, on the file or on a run,
// and unknown fields are errors.
func TestDecodeRejectsWrongSchemaAndKind(t *testing.T) {
	f := NewBenchFile("perf")
	r := apiv1.NewRunReport()
	r.Outcome = "completed"
	f.Runs = append(f.Runs, *r)
	data, _ := f.Encode()

	bad := strings.Replace(string(data), `"schema": 1`, `"schema": 999`, 1)
	if _, err := DecodeBenchFile([]byte(bad)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema accepted: %v", err)
	}
	bad = strings.Replace(string(data), KindBenchFile, "something.else", 1)
	if _, err := DecodeBenchFile([]byte(bad)); err == nil {
		t.Fatal("wrong kind accepted")
	}
	bad = strings.Replace(string(data), apiv1.KindRunReport, "something.else", 1)
	if _, err := DecodeBenchFile([]byte(bad)); err == nil {
		t.Fatal("wrong run kind accepted")
	}
	bad = strings.Replace(string(data), `"outcome"`, `"unknown_field"`, 1)
	if _, err := DecodeBenchFile([]byte(bad)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeBenchFile([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestBenchFileRoundTripAndSort(t *testing.T) {
	f := NewBenchFile("perf")
	for _, wl := range []string{"lu_cb", "fft", "dedup"} {
		r := apiv1.NewRunReport()
		r.Workload = wl
		r.Outcome = "completed"
		f.Runs = append(f.Runs, *r)
	}
	f.AddSummary("perf.mean_slowdown", 3.17)
	f.SortRuns()
	if f.Runs[0].Workload != "dedup" || f.Runs[2].Workload != "lu_cb" {
		t.Fatalf("runs not sorted: %v %v %v", f.Runs[0].Workload, f.Runs[1].Workload, f.Runs[2].Workload)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBenchFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "perf" || len(got.Runs) != 3 {
		t.Fatalf("bench file lost content: %+v", got)
	}
	if got.Summary["perf.mean_slowdown"] != 3.17 {
		t.Fatalf("summary lost: %v", got.Summary)
	}

	// A bench file containing a run with a wrong schema is rejected.
	bad := strings.Replace(string(data), `"schema": 1,
      "kind": "clean.run-report"`, `"schema": 2,
      "kind": "clean.run-report"`, 1)
	if bad != string(data) {
		if _, err := DecodeBenchFile([]byte(bad)); err == nil {
			t.Fatal("bench file with mismatched run schema accepted")
		}
	}
}

func TestBenchFileWriteFile(t *testing.T) {
	dir := t.TempDir()
	f := NewBenchFile("perf")
	path, err := f.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_perf.json") {
		t.Fatalf("path = %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBenchFile(data); err != nil {
		t.Fatal(err)
	}
}

// TestGate: a run equal to its baseline passes; every way of breaking a
// band — a ceiling exceeded, a floor undercut, an allocation on a path
// pinned at zero, a key missing from either file — is exactly one
// violation naming the key; an unreadable baseline is an error.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	base := NewBenchFile("gate")
	base.AddSummary("hotpath.x.ns_per_op", 100)
	base.AddSummary("hotpath.x.allocs_per_op", 0)
	base.AddSummary("predict.recall", 1)
	if _, err := base.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	bands := []Band{
		{Key: "hotpath.x.ns_per_op", Factor: 4, Slack: 50},
		{Key: "hotpath.x.allocs_per_op", Factor: 1},
		{Key: "predict.recall", Factor: 1, Slack: 0.05, Floor: true},
	}
	cases := []struct {
		name    string
		mutate  func(s map[string]float64)
		extra   []Band
		wantKey string // "" = no violation
		wantMsg string
	}{
		{name: "equal", mutate: func(map[string]float64) {}},
		{name: "ceiling edge", mutate: func(s map[string]float64) { s["hotpath.x.ns_per_op"] = 400 }},
		{name: "floor edge", mutate: func(s map[string]float64) { s["predict.recall"] = 0.96 }},
		{name: "ceiling exceeded", mutate: func(s map[string]float64) { s["hotpath.x.ns_per_op"] = 401 },
			wantKey: "hotpath.x.ns_per_op", wantMsg: "exceeds band"},
		{name: "floor undercut", mutate: func(s map[string]float64) { s["predict.recall"] -= 0.06 },
			wantKey: "predict.recall", wantMsg: "below band"},
		{name: "allocation", mutate: func(s map[string]float64) { s["hotpath.x.allocs_per_op"] = 1 },
			wantKey: "hotpath.x.allocs_per_op", wantMsg: "exceeds band"},
		{name: "missing from run", mutate: func(s map[string]float64) { delete(s, "predict.recall") },
			wantKey: "predict.recall", wantMsg: "missing from this run"},
		{name: "missing from baseline", mutate: func(s map[string]float64) { s["hotpath.y.ns_per_op"] = 1 },
			extra:   []Band{{Key: "hotpath.y.ns_per_op", Factor: 4, Slack: 50}},
			wantKey: "hotpath.y.ns_per_op", wantMsg: "missing from baseline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := NewBenchFile("gate")
			for k, v := range base.Summary {
				cur.AddSummary(k, v)
			}
			tc.mutate(cur.Summary)
			v, err := Gate(cur, dir, append(append([]Band(nil), bands...), tc.extra...))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.wantKey == "" && len(v) != 0:
				t.Errorf("violations %q, want none", v)
			case tc.wantKey != "" && (len(v) != 1 || !strings.HasPrefix(v[0], tc.wantKey+" ") || !strings.Contains(v[0], tc.wantMsg)):
				t.Errorf("violations %q, want one naming %s (%s)", v, tc.wantKey, tc.wantMsg)
			}
		})
	}

	if _, err := Gate(NewBenchFile("absent"), dir, bands); err == nil {
		t.Error("unreadable baseline: no error")
	}
}
