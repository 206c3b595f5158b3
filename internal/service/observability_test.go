package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// get issues a raw GET with optional Accept header against the test
// server and returns status, Content-Type and body.
func get(t *testing.T, url, accept string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestMetricsContentNegotiation: /metrics serves JSON by default (the
// representation every pre-existing client expects), Prometheus text
// under Accept: text/plain or ?format=prometheus, and rejects unknown
// formats with 400.
func TestMetricsContentNegotiation(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); err != nil {
		t.Fatal(err)
	}
	base := c.BaseURL() + "/metrics"

	cases := []struct {
		name, url, accept string
		wantJSON          bool
	}{
		{"default is JSON", base, "", true},
		{"explicit JSON accept", base, "application/json", true},
		{"browser accept stays JSON", base, "text/html,application/xhtml+xml", true},
		{"text/plain is prometheus", base, "text/plain", false},
		{"openmetrics is prometheus", base, "application/openmetrics-text", false},
		{"format=json overrides accept", base + "?format=json", "text/plain", true},
		{"format=prometheus overrides accept", base + "?format=prometheus", "application/json", false},
	}
	for _, tc := range cases {
		status, ctype, body := get(t, tc.url, tc.accept)
		if status != http.StatusOK {
			t.Errorf("%s: status %d, want 200", tc.name, status)
			continue
		}
		if tc.wantJSON {
			if !strings.Contains(ctype, "application/json") {
				t.Errorf("%s: content-type %q, want JSON", tc.name, ctype)
			}
			var doc apiv1.Metrics
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Errorf("%s: body is not a v1 metrics doc: %v", tc.name, err)
				continue
			}
			if doc.Metrics.Counters["service.jobs_completed"] < 1 {
				t.Errorf("%s: jobs_completed %d, want >= 1", tc.name, doc.Metrics.Counters["service.jobs_completed"])
			}
			if doc.CollectedAt == "" {
				t.Errorf("%s: collected_at missing", tc.name)
			}
		} else {
			if !strings.Contains(ctype, "text/plain; version=0.0.4") {
				t.Errorf("%s: content-type %q, want prometheus 0.0.4", tc.name, ctype)
			}
			if err := telemetry.CheckPrometheusText(body); err != nil {
				t.Errorf("%s: exposition does not parse: %v", tc.name, err)
			}
			text := string(body)
			for _, want := range []string{
				"service_jobs_completed", "service_queue_depth",
				"process_goroutines", "service_job_seconds_bucket",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("%s: exposition lacks %s", tc.name, want)
				}
			}
		}
	}

	status, _, body := get(t, base+"?format=xml", "")
	if status != http.StatusBadRequest {
		t.Errorf("unknown format: status %d (%s), want 400", status, body)
	}
}

// TestJobTraceSpans: a completed job's trace covers the full lifecycle
// in order, and — by construction of the mark model — its span
// durations sum exactly to the received→done latency.
func TestJobTraceSpans(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatal(err)
	}
	tr := job.Trace
	if tr == nil {
		t.Fatal("done job has no trace")
	}
	if tr.ReceivedUnixNano == 0 {
		t.Error("trace has no received timestamp")
	}
	var phases []string
	var sum float64
	for _, sp := range tr.Spans {
		phases = append(phases, sp.Phase)
		sum += sp.Seconds
		if sp.Seconds < 0 {
			t.Errorf("span %s has negative duration %g", sp.Phase, sp.Seconds)
		}
		if sp.StartUnixNano < tr.ReceivedUnixNano {
			t.Errorf("span %s starts before the job was received", sp.Phase)
		}
	}
	want := []string{"journaled", "queued", "running", "stored"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("span phases %v, want %v", phases, want)
	}
	if tr.TotalSeconds <= 0 {
		t.Errorf("total_seconds %g, want > 0", tr.TotalSeconds)
	}
	// The spans are contiguous, so their durations must sum to the
	// total up to float addition error.
	if diff := sum - tr.TotalSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("span durations sum to %g, total is %g (diff %g)", sum, tr.TotalSeconds, diff)
	}
}

// TestJobTraceUnderPanicRequeue: a contained worker panic splices
// requeued→running into the trace — the spans tell the retry story in
// order, and still sum to the total.
func TestJobTraceUnderPanicRequeue(t *testing.T) {
	ctx := context.Background()
	si := faults.NewServiceInjector()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4, Chaos: si})
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	si.Arm(faults.ServicePlan{WorkerPanics: 1})
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Attempts != 2 {
		t.Fatalf("attempts %d after one panic, want 2", job.Attempts)
	}
	tr := job.Trace
	if tr == nil {
		t.Fatal("retried job has no trace")
	}
	var phases []string
	var sum float64
	for _, sp := range tr.Spans {
		phases = append(phases, sp.Phase)
		sum += sp.Seconds
	}
	want := []string{"journaled", "queued", "running", "requeued", "running", "stored"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("span phases after panic %v, want %v", phases, want)
	}
	if diff := sum - tr.TotalSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("span durations sum to %g, total is %g", sum, tr.TotalSeconds)
	}
}

// TestDebugTraceTimeline: /debug/trace serves Chrome trace-event JSON
// with the intake/queue/worker track layout and the lifecycle spans of
// the jobs that ran.
func TestDebugTraceTimeline(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 4})
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); err != nil {
		t.Fatal(err)
	}

	status, ctype, body := get(t, c.BaseURL()+"/debug/trace", "")
	if status != http.StatusOK {
		t.Fatalf("trace status %d", status)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("trace content-type %q", ctype)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Track names arrive as thread_name metadata events; job lifecycle
	// spans carry the job id as name and the phase as category.
	tracks := make(map[string]bool)
	phases := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		if e.Name == "thread_name" {
			tracks[e.Args.Name] = true
		}
		if e.Ph == "X" {
			phases[e.Cat] = true
		}
	}
	for _, want := range []string{"intake", "queue", "worker 0", "worker 1"} {
		if !tracks[want] {
			t.Errorf("timeline lacks track %q (have %v)", want, tracks)
		}
	}
	for _, want := range []string{"queued", "running", "stored"} {
		if !phases[want] {
			t.Errorf("timeline lacks a %q span (have %v)", want, phases)
		}
	}

	// The same timeline through the typed client.
	raw, err := c.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "displayTimeUnit") {
		t.Error("client Trace() body lacks trace-event framing")
	}
}

// TestHealthUptime: /healthz carries the start instant and a positive,
// growing uptime.
func TestHealthUptime(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4})
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.StartedAt == "" {
		t.Fatal("health has no started_at")
	}
	started, err := time.Parse(time.RFC3339Nano, h.StartedAt)
	if err != nil {
		t.Fatalf("started_at %q does not parse: %v", h.StartedAt, err)
	}
	if age := time.Since(started); age < 0 || age > time.Minute {
		t.Errorf("started_at %v is implausible (%v old)", started, age)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds %g, want > 0", h.UptimeSeconds)
	}
}

// TestMetricsMergeStoreTelemetry: with a durable store configured, the
// service /metrics snapshot folds in the store's journal instruments —
// one scrape covers the whole process.
func TestMetricsMergeStoreTelemetry(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4, Store: st})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); err != nil {
		t.Fatal(err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics
	if snap.Counters["store.journal_records"] < 1 {
		t.Errorf("journal_records %d, want >= 1", snap.Counters["store.journal_records"])
	}
	if snap.Counters["store.fsyncs"] < 1 {
		t.Errorf("fsyncs %d, want >= 1", snap.Counters["store.fsyncs"])
	}
	if snap.Gauges["store.journal_bytes"] <= 0 {
		t.Errorf("journal_bytes %g, want > 0", snap.Gauges["store.journal_bytes"])
	}
	if snap.Gauges["service.queue_cap"] != 4 {
		t.Errorf("queue_cap %g, want 4", snap.Gauges["service.queue_cap"])
	}
	if snap.Gauges["process.goroutines"] <= 0 {
		t.Error("no goroutine gauge")
	}
	if h, ok := snap.Histograms["store.fsync_seconds"]; !ok || h.Count < 1 {
		t.Errorf("fsync_seconds histogram %+v, want count >= 1", h)
	}
	kinds := false
	for name := range snap.Histograms {
		if strings.Contains(name, `kind="litmus"`) && strings.Contains(name, `outcome="race-exception"`) {
			kinds = true
		}
	}
	if !kinds {
		t.Errorf("no per-kind/outcome latency histogram in %v", snap.Histograms)
	}

	// The merged snapshot must survive the Prometheus encoder too.
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckPrometheusText(text); err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	for _, want := range []string{"store_journal_records", `service_job_seconds_by_bucket{kind="litmus"`} {
		if !strings.Contains(string(text), want) {
			t.Errorf("merged exposition lacks %s", want)
		}
	}
}

// TestTraceDroppedEventsReported: past maxTimelineEvents the server
// timeline records nothing more, and /metrics says how many events it
// refused, in JSON and in the Prometheus exposition.
func TestTraceDroppedEventsReported(t *testing.T) {
	ctx := context.Background()
	srv, c := startTestServer(t, Config{Workers: 1, QueueDepth: 1})
	const k = 37
	at := time.Now()
	for i := 0; i < maxTimelineEvents+k; i++ {
		if i%2 == 0 {
			srv.tline.span(tidQueue, "fill", "test", at, at)
		} else {
			srv.tline.instant(tidIntake, "fill", "test", at)
		}
	}
	doc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Metrics.Gauges["service.trace_dropped_events"]; got != k {
		t.Errorf("service.trace_dropped_events = %g, want %d", got, k)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckPrometheusText(text); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if want := fmt.Sprintf("service_trace_dropped_events %d\n", k); !strings.Contains(string(text), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

// TestMetricsShadowFootprint: running jobs drives the shadow page pool,
// and /metrics exposes the footprint gauges in both representations. The
// job paths release their regions on completion, so after a burst of jobs
// the live mapped-pages gauge is back to its pre-burst level and the pool
// holds recycled pages.
func TestMetricsShadowFootprint(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 8})
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := doc.Metrics.Gauges
	for _, key := range []string{
		"shadow.mapped_pages", "shadow.metadata_bytes", "shadow.lines_compact",
		"shadow.lines_expanded", "shadow.pool_pages", "shadow.pool_retained_bytes",
		"shadow.pool_hits", "shadow.pool_misses", "shadow.pool_hit_rate",
	} {
		if _, ok := g[key]; !ok {
			t.Errorf("gauge %s missing from /metrics", key)
		}
	}
	// Jobs release on completion: live footprint is flat across the burst
	// (no jobs are in flight at either scrape).
	if g["shadow.mapped_pages"] != before.Metrics.Gauges["shadow.mapped_pages"] {
		t.Errorf("shadow.mapped_pages = %g after burst, was %g — a job leaked its region",
			g["shadow.mapped_pages"], before.Metrics.Gauges["shadow.mapped_pages"])
	}
	// The burst materialized pages somewhere: traffic counters moved and
	// the free list is primed for the next job.
	if g["shadow.pool_hits"]+g["shadow.pool_misses"] <= before.Metrics.Gauges["shadow.pool_hits"]+before.Metrics.Gauges["shadow.pool_misses"] {
		t.Error("shadow pool saw no traffic from the job burst")
	}
	if g["shadow.pool_pages"] < 1 {
		t.Errorf("shadow.pool_pages = %g, want >= 1 recycled page", g["shadow.pool_pages"])
	}
	if hr := g["shadow.pool_hit_rate"]; hr < 0 || hr > 1 {
		t.Errorf("shadow.pool_hit_rate = %g, want within [0,1]", hr)
	}

	// And the gauges survive the Prometheus encoder.
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckPrometheusText(text); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, want := range []string{"shadow_mapped_pages", "shadow_pool_hit_rate"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}
